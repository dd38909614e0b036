//! Whole-GPU simulation loop: SMs, two interconnect networks, memory
//! partitions, DRAM channels, and the CTA distributor.
//!
//! # The wake-driven cycle loop
//!
//! One sequential loop advances the machine a core cycle at a time. A
//! cycle visits the components in a fixed order (DESIGN.md §9):
//!
//! 1. **SMs**, ascending: step the SM's reply links and deliver up to
//!    `icnt_bandwidth` fills from each (demand channel first), step the
//!    SM's pipeline, and send up to `icnt_bandwidth` outbound requests
//!    into the request links.
//! 2. **DRAM channels**, ascending: step; completions are collected for
//!    the partitions.
//! 3. **Partitions**, ascending: step the partition's request links and
//!    eject up to `icnt_bandwidth` requests from each (demand first)
//!    while the partition has input credit, step the partition, and send
//!    up to `icnt_bandwidth` replies per class into the reply links.
//! 4. **CTA refill**, when a CTA completed this cycle.
//!
//! Every SM, reply-link pair, request-link pair and partition carries a
//! wake cycle, and a DRAM channel its own `wake_at`; a cycle visits only
//! the components that are due, in ascending id order within each class
//! (one 64-bit due mask per 64 components), so every per-link send order
//! and every [`Stats`] field is bit-identical to visiting all of them.
//! A component whose step changes nothing but per-cycle stall counters
//! is parked until its own next event (hit-pipe maturity, warp timers,
//! prefetch age-out, the tenant throttle's next duty-cycle slot, a link
//! arrival, a DRAM timer) or until an external event touches it (a fill,
//! a CTA launch, a throttle change, an accepted request, a DRAM
//! completion or freed DRAM queue slot). The stall counters of the
//! cycles it sat out are charged once, through `account_skipped`, when
//! it is next visited or when statistics are collected. When nothing is
//! due, the clock jumps straight to the earliest wake cycle.
//!
//! Naive stepping (`fast_forward` off, see [`Gpu::set_fast_forward`])
//! visits every component every cycle; it is the reference the
//! differential suites compare against.

use crate::config::GpuConfig;
use crate::cta_scheduler::CtaDistributor;
use crate::dram::{DramChannel, DramRequest};
use crate::interconnect::{MemReply, MemRequest, Network};
use crate::kernel::Kernel;
use crate::partition::MemoryPartition;
use crate::port::{Link, PortSnapshot};
use crate::prefetch::PrefetcherFactory;
use crate::sched::make_scheduler;
use crate::sm::Sm;
use crate::stats::{AdaptReport, KernelStats, LinkReport, Stats};
use crate::tenant::{Partitioning, TenantState, TENANT_WINDOW};
use crate::types::{CtaCoord, Cycle, KernelId, MAX_TENANTS};

/// Hard ceiling on simulated cycles; a run exceeding it returns what it
/// has (mirrors the paper's one-billion-instruction cap).
pub const DEFAULT_MAX_CYCLES: Cycle = 50_000_000;

/// Wake bookkeeping of one component class, indexed by component id.
#[derive(Debug)]
struct Wakes {
    /// Next cycle the component must be visited; `Cycle::MAX` when only
    /// an external event can make it act again.
    at: Vec<Cycle>,
    /// First cycle the component has neither stepped nor been charged
    /// for through `account_skipped`.
    acct: Vec<Cycle>,
}

impl Wakes {
    fn new(n: usize) -> Self {
        Wakes {
            at: vec![0; n],
            acct: vec![0; n],
        }
    }

    /// Pull component `i`'s visit forward to cycle `t` (no-op if it is
    /// already due by then).
    #[inline]
    fn wake(&mut self, i: usize, t: Cycle) {
        if t < self.at[i] {
            self.at[i] = t;
        }
    }

    /// Cycles of component `i` before `upto` not yet stepped or charged;
    /// marks them charged.
    #[inline]
    fn settle(&mut self, i: usize, upto: Cycle) -> u64 {
        let from = self.acct[i];
        if from >= upto {
            return 0;
        }
        self.acct[i] = upto;
        upto - from
    }
}

/// Bit `k` set iff `a[k] <= now` or `b[k] <= now` (at most 64 entries).
#[inline]
fn due_mask(a: &[Cycle], b: &[Cycle], now: Cycle) -> u64 {
    debug_assert!(a.len() <= 64 && a.len() == b.len());
    a.iter().zip(b).enumerate().fold(0, |m, (k, (&x, &y))| {
        m | ((((x <= now) | (y <= now)) as u64) << k)
    })
}

/// Bits `0..n` set (`n <= 64`).
#[inline]
fn full_mask(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Next visit of a reply link after it stepped and delivered this cycle:
/// the next cycle while messages wait in its eject queue, else its next
/// pipe arrival.
#[inline]
fn reply_link_next(link: &Link<MemReply>, now: Cycle) -> Cycle {
    if link.has_pending() {
        now + 1
    } else {
        link.wake_at()
    }
}

/// Next visit of a request link, given its partition's state after this
/// cycle: the next cycle if its head can eject, the next pipe arrival
/// while the eject queue has room, and otherwise never — the head and a
/// full eject queue wait for the partition to free input credit, which
/// re-evaluates this.
#[inline]
fn req_link_next(link: &Link<MemRequest>, part: &MemoryPartition, now: Cycle) -> Cycle {
    match link.peek() {
        Some(req) if part.can_accept(req.kind) => now + 1,
        _ if link.has_room() => link.wake_at(),
        _ => Cycle::MAX,
    }
}

/// A complete GPU bound to one or more co-resident kernel contexts.
pub struct Gpu {
    cfg: GpuConfig,
    /// Co-resident kernels; index is the tenant's [`KernelId`]. Legacy
    /// single-kernel mode is the one-element case.
    kernels: Vec<Kernel>,
    /// Multi-tenant dispatch state; `None` in legacy single-kernel mode
    /// (where [`Self::distributor`] drives the grid).
    tenants: Option<TenantState>,
    /// Next interference-monitor boundary; `Cycle::MAX` in legacy mode
    /// so the per-cycle check costs one compare.
    tenant_window_end: Cycle,
    /// Sticky default for [`TenantState::throttling`] consumed by the
    /// next [`Self::run_tenants`] (BASE co-run baselines turn it off).
    tenant_throttling: bool,
    sms: Vec<Sm>,
    req_net: Network<MemRequest>,
    /// Low-priority virtual channel for prefetch requests: backed-up
    /// prefetch traffic must never head-of-line block demands.
    pf_req_net: Network<MemRequest>,
    reply_net: Network<MemReply>,
    /// Low-priority virtual channel for prefetch fills.
    pf_reply_net: Network<MemReply>,
    partitions: Vec<MemoryPartition>,
    channels: Vec<DramChannel>,
    distributor: CtaDistributor,
    cycle: Cycle,
    /// DRAM completions of the current cycle, from every channel.
    dram_done: Vec<DramRequest>,
    /// CTAs completed this cycle; only tested for emptiness (the refill
    /// trigger).
    completed: Vec<CtaCoord>,
    /// Wake-driven stepping and clock jumps; when `false`, every
    /// component steps every cycle. Statistics are bit-identical either
    /// way; set by [`Self::set_fast_forward`].
    fast_forward: bool,
    /// Cycles covered by clock jumps (host diagnostics, not `Stats`).
    skipped_cycles: u64,
    /// Number of clock jumps taken.
    skip_events: u64,
    sm_wake: Wakes,
    /// Next visit of SM `i`'s two reply links (demand, prefetch).
    reply_at: Vec<Cycle>,
    /// Partition `p`'s two request links; `acct` tracks their stall
    /// events.
    req_wake: Wakes,
    part_wake: Wakes,
}

impl Gpu {
    /// Build a GPU running `kernel` with per-SM prefetchers from
    /// `prefetcher_factory`.
    pub fn new(cfg: GpuConfig, kernel: Kernel, prefetcher_factory: &PrefetcherFactory) -> Self {
        cfg.validate();
        kernel.validate().expect("invalid kernel");
        let sms = (0..cfg.num_sms)
            .map(|id| {
                Sm::new(
                    id,
                    &cfg,
                    &kernel,
                    make_scheduler(&cfg),
                    prefetcher_factory(id),
                )
            })
            .collect::<Vec<_>>();
        // Pipe rings are sized from the producers' aggregate in-flight
        // bounds so steady state never allocates (§9d): every SM's
        // demand misses are MSHR-bounded and its prefetches are bounded
        // by the in-flight cap, and in the worst case all of them target
        // one partition; replies to one SM are bounded by the same two
        // caps. Stores have no such bound — they are fire-and-forget
        // (no MSHR entry, no reply), so a store burst converging on one
        // backpressured partition can pile past the load bound (HST
        // reaches ~4x it); the demand pipe gets 4x headroom and the
        // ring's counted growth valve covers anything beyond.
        let demand_bound = cfg.l1d.mshr_entries as usize;
        let pf_bound = cfg.prefetch_queue_depth;
        let latency = cfg.icnt_latency;
        let depth = cfg.icnt_queue_depth;
        let req_net = Network::new(
            cfg.num_partitions,
            latency,
            depth,
            cfg.num_sms * demand_bound * 4,
        );
        let pf_req_net = Network::new(cfg.num_partitions, latency, depth, cfg.num_sms * pf_bound);
        let reply_net = Network::new(cfg.num_sms, latency, depth, demand_bound + pf_bound);
        let pf_reply_net = Network::new(cfg.num_sms, latency, depth, demand_bound + pf_bound);
        let partitions = (0..cfg.num_partitions)
            .map(|id| MemoryPartition::new(id, &cfg))
            .collect();
        let channels: Vec<DramChannel> = (0..cfg.num_dram_channels)
            .map(|_| DramChannel::new(&cfg))
            .collect();
        let distributor = CtaDistributor::new(kernel.num_ctas());
        let num_sms = cfg.num_sms;
        let num_partitions = cfg.num_partitions;
        Gpu {
            cfg,
            kernels: vec![kernel],
            tenants: None,
            tenant_window_end: Cycle::MAX,
            tenant_throttling: true,
            sms,
            req_net,
            pf_req_net,
            reply_net,
            pf_reply_net,
            partitions,
            channels,
            distributor,
            cycle: 0,
            dram_done: Vec::new(),
            completed: Vec::new(),
            fast_forward: true,
            skipped_cycles: 0,
            skip_events: 0,
            sm_wake: Wakes::new(num_sms),
            reply_at: vec![0; num_sms],
            req_wake: Wakes::new(num_partitions),
            part_wake: Wakes::new(num_partitions),
        }
    }

    /// Simulated cycles covered by clock jumps and the number of jumps
    /// taken (host-side diagnostics; not part of [`Stats`]).
    pub fn skip_counters(&self) -> (u64, u64) {
        (self.skipped_cycles, self.skip_events)
    }

    /// Enable (the default) or disable wake-driven stepping; the
    /// differential suites turn it off to get the naive reference.
    pub fn set_fast_forward(&mut self, on: bool) {
        self.fast_forward = on;
        self.wake_all();
    }

    /// Current simulated cycle.
    #[inline]
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// Run until the kernel drains or `max_cycles` elapse; returns the
    /// aggregated statistics.
    pub fn run(&mut self, max_cycles: Cycle) -> Stats {
        self.run_launches(1, max_cycles)
    }

    /// Run the kernel `launches` times back to back with persistent
    /// caches — GPU applications launch iterative kernels repeatedly
    /// (time steps, frontier sweeps, training epochs), so later launches
    /// find their data warm in L2. This mirrors whole-application
    /// simulation in GPGPU-Sim.
    pub fn run_launches(&mut self, launches: u32, max_cycles: Cycle) -> Stats {
        assert!(launches > 0);
        for _ in 0..launches {
            self.distributor = CtaDistributor::new(self.kernels[0].num_ctas());
            self.wake_all();
            self.initial_fill();
            self.advance_until_done(max_cycles);
            if self.cycle >= max_cycles {
                break;
            }
        }
        self.collect_stats()
    }

    /// Run with the default cycle ceiling.
    pub fn run_to_completion(&mut self) -> Stats {
        self.run(DEFAULT_MAX_CYCLES)
    }

    /// Run a multi-kernel application (§II-A): the kernels execute back
    /// to back with persistent caches, like dependent passes of one
    /// program (e.g. the row and column passes of a separable
    /// convolution, or forward/backward layers of training).
    pub fn run_app(&mut self, kernels: &[Kernel], max_cycles: Cycle) -> Stats {
        assert!(!kernels.is_empty());
        for k in kernels {
            self.bind_kernel(k.clone());
            self.distributor = CtaDistributor::new(self.kernels[0].num_ctas());
            self.initial_fill();
            self.advance_until_done(max_cycles);
            if self.cycle >= max_cycles {
                break;
            }
        }
        self.collect_stats()
    }

    /// Run `kernels` as co-resident tenants under `policy` until every
    /// tenant drains or `max_cycles` elapse. Returns the machine-wide
    /// statistics plus one [`KernelStats`] per tenant, attributed end to
    /// end through the tenant tags every request carries.
    ///
    /// With a single tenant and any policy this is bit-identical to
    /// [`Self::run_launches`]`(1, _)`: tenant 0's address/PC offsets are
    /// the identity and the dispatch paths coincide. Naive and
    /// wake-driven stepping agree bit-identically on both `Stats` and
    /// the per-tenant `KernelStats` under every policy.
    ///
    /// # Panics
    /// If `kernels` is empty or longer than [`MAX_TENANTS`], or the GPU
    /// is not drained.
    pub fn run_tenants(
        &mut self,
        kernels: &[Kernel],
        policy: Partitioning,
        max_cycles: Cycle,
    ) -> (Stats, Vec<KernelStats>) {
        for k in kernels {
            k.validate().expect("invalid kernel");
        }
        let mut state = TenantState::new(kernels, policy);
        state.throttling = self.tenant_throttling;
        self.wake_all();
        self.kernels = kernels.to_vec();
        for sm in &mut self.sms {
            sm.rebind_shared(&self.kernels);
            sm.set_throttle([0; MAX_TENANTS]);
            sm.reset_kernel_stats();
        }
        for p in &mut self.partitions {
            p.stats.reset_kernel_counters();
        }
        for c in &mut self.channels {
            c.reset_kernel_counters();
        }
        // Legacy dispatch is inert in tenant mode; the per-tenant
        // distributors drive the grid.
        self.distributor = CtaDistributor::new(0);
        self.tenants = Some(state);
        self.tenant_window_end = self.cycle + TENANT_WINDOW;
        self.tenant_initial_fill();
        self.advance_until_done(max_cycles);
        let per_kernel = self.collect_tenant_stats();
        self.tenants = None;
        self.tenant_window_end = Cycle::MAX;
        for sm in &mut self.sms {
            sm.set_throttle([0; MAX_TENANTS]);
        }
        (self.collect_stats(), per_kernel)
    }

    /// Enable or disable interference-monitor throttling for subsequent
    /// [`Self::run_tenants`] calls (default on). Co-run baselines
    /// disable it to measure raw, unmanaged contention; the monitor
    /// still samples windows either way, so its diagnostics stay
    /// comparable.
    pub fn set_tenant_throttling(&mut self, on: bool) {
        self.tenant_throttling = on;
    }

    /// Drive the clock until the bound kernel drains or `max_cycles`
    /// elapse. When no component is due, the clock jumps to the earliest
    /// wake cycle — clamped to the next interference-monitor boundary, so
    /// throttle updates land at the same cycle as under naive stepping,
    /// and to `max_cycles`, so a deadlocked configuration ends where the
    /// naive loop would spin to.
    fn advance_until_done(&mut self, max_cycles: Cycle) {
        while !self.done() && self.cycle < max_cycles {
            let now = self.cycle;
            if now >= self.tenant_window_end {
                self.tenant_boundary(now);
            }
            if self.fast_forward {
                let next = self.next_wake();
                if next > now {
                    let target = next.min(max_cycles).min(self.tenant_window_end);
                    self.skipped_cycles += target - now;
                    self.skip_events += 1;
                    self.cycle = target;
                    continue;
                }
            }
            self.step();
        }
    }

    /// Earliest cycle at which any component is due (the current cycle
    /// as soon as one is).
    fn next_wake(&self) -> Cycle {
        let now = self.cycle;
        let mut next = Cycle::MAX;
        let wakes = self
            .sm_wake
            .at
            .iter()
            .chain(&self.part_wake.at)
            .chain(&self.reply_at)
            .chain(&self.req_wake.at)
            .copied()
            .chain(self.channels.iter().map(DramChannel::wake_at));
        for t in wakes {
            if t <= now {
                return now;
            }
            next = next.min(t);
        }
        next
    }

    /// Charge every component's unstepped cycles up to the current cycle
    /// and make everything due now: required before state changes made
    /// outside the cycle loop (CTA fills, kernel rebinds, a mode switch).
    fn wake_all(&mut self) {
        self.settle_all();
        let now = self.cycle;
        for at in [
            &mut self.sm_wake.at,
            &mut self.reply_at,
            &mut self.req_wake.at,
            &mut self.part_wake.at,
        ] {
            at.fill(now);
        }
    }

    /// Charge every component's unstepped cycles before the current
    /// cycle through `account_skipped`.
    fn settle_all(&mut self) {
        let now = self.cycle;
        for (i, sm) in self.sms.iter_mut().enumerate() {
            let skipped = self.sm_wake.settle(i, now);
            sm.account_skipped(skipped);
        }
        for (p, part) in self.partitions.iter_mut().enumerate() {
            let skipped = self.part_wake.settle(p, now);
            part.account_skipped(skipped);
            let from = self.req_wake.acct[p];
            self.req_net.link(p).account_skipped(from, now);
            self.pf_req_net.link(p).account_skipped(from, now);
            self.req_wake.acct[p] = self.req_wake.acct[p].max(now);
        }
    }

    /// Close of an interference-monitor window at cycle `now`: attribute
    /// the window's L2 misses to tenants via the tags every request
    /// carries, let the monitor pick throttle levels, and install them
    /// on every SM. Decisions read only simulated counters that naive
    /// and wake-driven stepping keep identical, and clock jumps clamp to
    /// these boundaries, so both throttle identically.
    fn tenant_boundary(&mut self, now: Cycle) {
        let mut ts = self
            .tenants
            .take()
            .expect("tenant boundary without tenants");
        let mut misses = [0u64; MAX_TENANTS];
        for p in &self.partitions {
            for (m, &pm) in misses.iter_mut().zip(&p.stats.misses_by_kernel) {
                *m += pm;
            }
        }
        // Contention is judged by SM residency, not by "has unfinished
        // work": under `Exclusive` the waiting tenant occupies no SM, so
        // the active tenant must never be throttled on its behalf.
        let mut contending = [false; MAX_TENANTS];
        for sm in &self.sms {
            for (k, c) in contending.iter_mut().enumerate() {
                *c = *c || sm.resident_ctas_of(k as crate::types::KernelId) > 0;
            }
        }
        let levels = ts.monitor.on_window(misses, contending);
        if ts.throttling {
            for (i, sm) in self.sms.iter_mut().enumerate() {
                sm.set_throttle(levels);
                self.sm_wake.wake(i, now);
            }
        }
        self.tenants = Some(ts);
        self.tenant_window_end = now + TENANT_WINDOW;
    }

    /// Initial round-robin fill in tenant mode (§II-B per tenant):
    /// `Exclusive` fills every SM from the first tenant; `SmSplit` fills
    /// each tenant's SM slice from its own grid; `Shared` fills every SM
    /// from every tenant up to the per-SM per-tenant quota.
    fn tenant_initial_fill(&mut self) {
        let mut ts = self.tenants.take().expect("tenant fill without tenants");
        let num_sms = self.cfg.num_sms;
        let cap = self.sms[0].resident_cta_cap();
        let now = self.cycle;
        match ts.policy {
            Partitioning::Exclusive => {
                if let Some(t) = ts.active_exclusive() {
                    let ctx = &mut ts.ctxs[t];
                    let plan = ctx.distributor.initial_fill(num_sms, cap);
                    for (sm, cta) in plan {
                        let coord = ctx.kernel.cta_coord(cta);
                        self.sms[sm].launch_cta(coord, t as KernelId, &ctx.kernel);
                        ctx.start_cycle.get_or_insert(now);
                    }
                }
            }
            Partitioning::SmSplit => {
                for t in 0..ts.ctxs.len() {
                    let range = ts.sm_range(t, num_sms);
                    let ctx = &mut ts.ctxs[t];
                    let plan = ctx.distributor.initial_fill(range.len(), cap);
                    for (sm, cta) in plan {
                        let sm = range.start + sm;
                        let coord = ctx.kernel.cta_coord(cta);
                        self.sms[sm].launch_cta(coord, t as KernelId, &ctx.kernel);
                        ctx.start_cycle.get_or_insert(now);
                    }
                }
            }
            Partitioning::Shared => {
                let quota = (cap / ts.ctxs.len()).max(1);
                for t in 0..ts.ctxs.len() {
                    let ctx = &mut ts.ctxs[t];
                    let plan = ctx.distributor.initial_fill(num_sms, quota);
                    for (sm, cta) in plan {
                        if !self.sms[sm].has_free_cta_slot() {
                            // Quota rounding can overcommit slots when
                            // cap < tenants; surplus CTAs return to the
                            // grid via demand refill. Unreachable for
                            // cap >= tenants, but cheap to guard.
                            continue;
                        }
                        let coord = ctx.kernel.cta_coord(cta);
                        self.sms[sm].launch_cta(coord, t as KernelId, &ctx.kernel);
                        ctx.start_cycle.get_or_insert(now);
                    }
                }
            }
        }
        self.tenants = Some(ts);
    }

    /// Demand-driven refill in tenant mode, run at the end of a cycle in
    /// which a CTA completed: record tenant finish times, then hand freed
    /// slots to the policy's eligible tenants in fixed (SM, tenant) order
    /// — deterministic, so bit-identical everywhere.
    fn refill_tenants(&mut self) {
        let mut ts = self.tenants.take().expect("tenant refill without tenants");
        let now = self.cycle;
        let num_sms = self.cfg.num_sms;
        // Finish detection first, so `Exclusive` can hand the machine to
        // the next tenant in the same cycle its predecessor drains.
        for (k, ctx) in ts.ctxs.iter_mut().enumerate() {
            if ctx.finish_cycle.is_none()
                && ctx.start_cycle.is_some()
                && ctx.distributor.remaining() == 0
                && self
                    .sms
                    .iter()
                    .all(|sm| sm.resident_ctas_of(k as KernelId) == 0)
            {
                ctx.finish_cycle = Some(now);
            }
        }
        match ts.policy {
            Partitioning::Exclusive => {
                if let Some(t) = ts.active_exclusive() {
                    let ctx = &mut ts.ctxs[t];
                    for i in 0..num_sms {
                        while self.sms[i].has_free_cta_slot() {
                            let Some(id) = ctx.distributor.next_cta() else {
                                break;
                            };
                            self.launch_in_tail(i, ctx.kernel.cta_coord(id), t, &ctx.kernel);
                            ctx.start_cycle.get_or_insert(now);
                        }
                    }
                }
            }
            Partitioning::SmSplit => {
                for t in 0..ts.ctxs.len() {
                    let range = ts.sm_range(t, num_sms);
                    let ctx = &mut ts.ctxs[t];
                    for i in range {
                        while self.sms[i].has_free_cta_slot() {
                            let Some(id) = ctx.distributor.next_cta() else {
                                break;
                            };
                            self.launch_in_tail(i, ctx.kernel.cta_coord(id), t, &ctx.kernel);
                            ctx.start_cycle.get_or_insert(now);
                        }
                    }
                }
            }
            Partitioning::Shared => {
                let quota = (self.sms[0].resident_cta_cap() / ts.ctxs.len()).max(1);
                for i in 0..num_sms {
                    for (t, ctx) in ts.ctxs.iter_mut().enumerate() {
                        while self.sms[i].has_free_cta_slot()
                            && self.sms[i].resident_ctas_of(t as KernelId) < quota
                        {
                            let Some(id) = ctx.distributor.next_cta() else {
                                break;
                            };
                            self.launch_in_tail(i, ctx.kernel.cta_coord(id), t, &ctx.kernel);
                            ctx.start_cycle.get_or_insert(now);
                        }
                    }
                }
            }
        }
        self.tenants = Some(ts);
    }

    /// Launch a CTA on SM `i` at the end of the current cycle, after the
    /// SM's slot in it: the SM is charged its unstepped cycles through
    /// this one under its pre-launch state, then steps next cycle.
    fn launch_in_tail(&mut self, i: usize, coord: CtaCoord, tenant: usize, kernel: &Kernel) {
        let now = self.cycle;
        let skipped = self.sm_wake.settle(i, now + 1);
        self.sms[i].account_skipped(skipped);
        self.sms[i].launch_cta(coord, tenant as KernelId, kernel);
        self.sm_wake.wake(i, now + 1);
    }

    /// Aggregate each tenant's side counters (SM, L2, DRAM) and lifetime
    /// marks into per-tenant [`KernelStats`]. Part of the bit-identity
    /// contract, unlike the host-side reports.
    fn collect_tenant_stats(&self) -> Vec<KernelStats> {
        let ts = self.tenants.as_ref().expect("no tenant state to collect");
        let mut out = Vec::with_capacity(ts.ctxs.len());
        for (k, ctx) in ts.ctxs.iter().enumerate() {
            let mut total = KernelStats::default();
            for sm in &self.sms {
                total.absorb(&sm.kstats[k]);
            }
            for p in &self.partitions {
                total.l2_accesses += p.stats.accesses_by_kernel[k];
                total.l2_hits += p.stats.hits_by_kernel[k];
                total.l2_misses += p.stats.misses_by_kernel[k];
            }
            for c in &self.channels {
                total.dram_reads += c.reads_by_kernel[k];
                total.dram_writes += c.writes_by_kernel[k];
            }
            total.start_cycle = ctx.start_cycle.unwrap_or(0);
            total.finish_cycle = ctx.finish_cycle.unwrap_or(self.cycle);
            out.push(total);
        }
        out
    }

    /// Replace the bound kernel (the GPU must be drained between
    /// kernels; callers normally use [`Self::run_app`]).
    pub fn bind_kernel(&mut self, kernel: Kernel) {
        kernel.validate().expect("invalid kernel");
        self.wake_all();
        for sm in &mut self.sms {
            sm.rebind(&kernel);
        }
        self.kernels = vec![kernel];
    }

    fn initial_fill(&mut self) {
        // Round-robin initial assignment (§II-B): one CTA at a time per
        // SM until each reaches its residency cap.
        let cap = self.sms[0].resident_cta_cap();
        let plan = self.distributor.initial_fill(self.cfg.num_sms, cap);
        let kernel = &self.kernels[0];
        for (sm, cta) in plan {
            let coord = kernel.cta_coord(cta);
            self.sms[sm].launch_cta(coord, 0, kernel);
        }
    }

    fn done(&self) -> bool {
        let dispatch_done = match &self.tenants {
            Some(ts) => ts.ctxs.iter().all(|c| c.distributor.remaining() == 0),
            None => self.distributor.remaining() == 0,
        };
        dispatch_done
            && self.sms.iter().all(Sm::is_idle)
            && self.partitions.iter().all(MemoryPartition::idle)
            && self.req_net.in_flight() == 0
            && self.pf_req_net.in_flight() == 0
            && self.reply_net.in_flight() == 0
            && self.pf_reply_net.in_flight() == 0
            && self.channels.iter().all(|c| c.pending() == 0)
    }

    /// Advance the whole GPU one core cycle, visiting the due components
    /// (every component under naive stepping) in the module-level order.
    fn step(&mut self) {
        let now = self.cycle;
        let all = !self.fast_forward;

        let n = self.cfg.num_sms;
        for base in (0..n).step_by(64) {
            let end = (base + 64).min(n);
            let mut due = if all {
                full_mask(end - base)
            } else {
                due_mask(&self.sm_wake.at[base..end], &self.reply_at[base..end], now)
            };
            while due != 0 {
                let i = base + due.trailing_zeros() as usize;
                due &= due - 1;
                self.visit_sm(i, now);
            }
        }

        self.dram_done.clear();
        for c in 0..self.channels.len() {
            if all || self.channels[c].wake_at() <= now {
                self.visit_channel(c, now);
            }
        }

        let n = self.cfg.num_partitions;
        for base in (0..n).step_by(64) {
            let end = (base + 64).min(n);
            let mut due = if all {
                full_mask(end - base)
            } else {
                due_mask(
                    &self.part_wake.at[base..end],
                    &self.req_wake.at[base..end],
                    now,
                )
            };
            while due != 0 {
                let p = base + due.trailing_zeros() as usize;
                due &= due - 1;
                self.visit_partition(p, now);
            }
        }

        // Demand-driven CTA refill (Fig. 3): completed CTAs free slots;
        // the distributor hands out the next CTA ids.
        if !self.completed.is_empty() {
            self.refill_ctas();
            self.completed.clear();
        }
        self.cycle += 1;
    }

    /// SM `i`'s slot in cycle `now`: reply links, pipeline, injection.
    fn visit_sm(&mut self, i: usize, now: Cycle) {
        let all = !self.fast_forward;
        let bw = self.cfg.icnt_bandwidth;
        let sm = &mut self.sms[i];
        let skipped = self.sm_wake.settle(i, now);
        sm.account_skipped(skipped);
        let mut woken = all || self.sm_wake.at[i] <= now;

        // Fills: demand replies first, then the prefetch virtual channel.
        if all || self.reply_at[i] <= now {
            let mut next = Cycle::MAX;
            for link in [self.reply_net.link(i), self.pf_reply_net.link(i)] {
                link.step(now);
                for _ in 0..bw {
                    let Some(reply) = link.pop_one() else { break };
                    sm.on_fill(now, reply.line);
                    woken = true;
                }
                next = next.min(reply_link_next(link, now));
            }
            self.reply_at[i] = next;
        }
        if !woken {
            return;
        }

        let progressed = sm.step(now, &self.kernels, &mut self.completed);
        self.sm_wake.acct[i] = now + 1;
        let mut sent = false;
        for _ in 0..bw {
            let Some(req) = sm.pop_outbound() else { break };
            let dst = self.cfg.partition_of(req.line);
            let net = if req.kind.is_prefetch() {
                &mut self.pf_req_net
            } else {
                &mut self.req_net
            };
            let arrival = net.send(now, dst, req);
            self.req_wake.wake(dst, arrival);
            sent = true;
        }
        self.sm_wake.at[i] = if all || progressed || sent || sm.has_outbound() {
            now + 1
        } else {
            sm.next_event(now).unwrap_or(Cycle::MAX)
        };
    }

    /// DRAM channel `c`'s slot in cycle `now`. Completions and a freed
    /// queue slot (FR-FCFS issued a command) are the external events
    /// that wake the channel's partitions for this cycle.
    fn visit_channel(&mut self, c: usize, now: Cycle) {
        let ch = &mut self.channels[c];
        let queued = ch.queued();
        let first = self.dram_done.len();
        ch.step(now, &mut self.dram_done);
        if ch.queued() < queued {
            let stride = self.cfg.num_dram_channels;
            for p in (c..self.cfg.num_partitions).step_by(stride) {
                if self.partitions[p].waits_for_dram_slot() {
                    self.part_wake.wake(p, now);
                }
            }
        }
        for done in &self.dram_done[first..] {
            self.part_wake.wake(done.partition, now);
        }
    }

    /// Partition `p`'s slot in cycle `now`: request links, the partition
    /// itself, reply injection.
    fn visit_partition(&mut self, p: usize, now: Cycle) {
        let all = !self.fast_forward;
        let bw = self.cfg.icnt_bandwidth;
        let part = &mut self.partitions[p];
        let skipped = self.part_wake.settle(p, now);
        part.account_skipped(skipped);
        let mut woken = all || self.part_wake.at[p] <= now;

        // Request links → partition (consumer-checked ejection; demand
        // channel first).
        if all || self.req_wake.at[p] <= now {
            let from = self.req_wake.acct[p];
            for link in [self.req_net.link(p), self.pf_req_net.link(p)] {
                link.account_skipped(from, now);
                link.step(now);
                for _ in 0..bw {
                    let Some(req) = link.peek() else { break };
                    if !part.can_accept(req.kind) {
                        break;
                    }
                    let req = link.pop_one().expect("peeked");
                    part.accept(now, req);
                    woken = true;
                }
            }
            self.req_wake.acct[p] = now + 1;
        }

        if woken {
            let ch = &mut self.channels[self.cfg.channel_of_partition(p)];
            let progressed = part.step(now, ch, &self.dram_done);
            self.part_wake.acct[p] = now + 1;
            for _ in 0..bw {
                let Some(reply) = part.reply_out.pop() else {
                    break;
                };
                let arrival = self.reply_net.send(now, reply.sm, reply);
                self.reply_at[reply.sm] = self.reply_at[reply.sm].min(arrival);
            }
            for _ in 0..bw {
                let Some(reply) = part.pf_reply_out.pop() else {
                    break;
                };
                let arrival = self.pf_reply_net.send(now, reply.sm, reply);
                self.reply_at[reply.sm] = self.reply_at[reply.sm].min(arrival);
            }
            // After a step that changed nothing, or one that left no
            // queued work, the next step can only act on a timer or an
            // external event.
            self.part_wake.at[p] =
                if all || part.has_replies() || (progressed && part.has_queued_work()) {
                    now + 1
                } else {
                    part.next_event(now).unwrap_or(Cycle::MAX)
                };
        }
        // The partition may have freed input credit: re-evaluate when
        // its request links can next act.
        self.req_wake.at[p] = req_link_next(self.req_net.link(p), part, now).min(req_link_next(
            self.pf_req_net.link(p),
            part,
            now,
        ));
    }

    fn refill_ctas(&mut self) {
        if self.tenants.is_some() {
            self.refill_tenants();
            return;
        }
        let kernels = std::mem::take(&mut self.kernels);
        'sms: for i in 0..self.cfg.num_sms {
            while self.sms[i].has_free_cta_slot() {
                let Some(id) = self.distributor.next_cta() else {
                    break 'sms;
                };
                self.launch_in_tail(i, kernels[0].cta_coord(id), 0, &kernels[0]);
            }
        }
        self.kernels = kernels;
    }

    /// Aggregate statistics across SMs, partitions, channels, networks,
    /// after charging every component's unstepped cycles.
    pub fn collect_stats(&mut self) -> Stats {
        self.settle_all();
        let mut total = Stats::default();
        for sm in &mut self.sms {
            sm.finalize();
            total.absorb(&sm.stats);
        }
        total.cycles = self.cycle;
        for p in &self.partitions {
            total.l2_accesses += p.stats.accesses;
            total.l2_hits += p.stats.hits;
            total.l2_misses += p.stats.misses;
            total.dram_queue_stalls += p.stats.dram_queue_stalls;
        }
        for c in &self.channels {
            total.dram_reads += c.reads;
            total.dram_writes += c.writes;
            total.dram_row_hits += c.row_hits;
            total.dram_row_misses += c.row_misses;
        }
        total.icnt_replies = self
            .partitions
            .iter()
            .map(|p| p.stats.accesses)
            .sum::<u64>()
            .min(total.icnt_requests);
        total.icnt_stalls = self.req_net.stall_events()
            + self.pf_req_net.stall_events()
            + self.reply_net.stall_events()
            + self.pf_reply_net.stall_events();
        total
    }

    /// Per-subsystem port/link occupancy and backpressure report:
    /// high-water marks, credit-stall counts, and growth-valve
    /// activations aggregated over every ring in the memory path.
    /// Host-side reporting, kept outside [`Stats`]; read it after
    /// [`Self::collect_stats`] (the run methods call it), which charges
    /// blocked links the stalls of the cycles they sat out.
    pub fn link_report(&self) -> LinkReport {
        let mut sm_ports = PortSnapshot::default();
        for sm in &self.sms {
            sm_ports.absorb(sm.port_snapshot());
        }
        let mut partition_ports = PortSnapshot::default();
        for p in &self.partitions {
            partition_ports.absorb(p.port_snapshot());
        }
        let mut dram_queues = PortSnapshot::default();
        for c in &self.channels {
            dram_queues.absorb(c.port_snapshot());
        }
        LinkReport {
            req_net: self.req_net.snapshot(),
            pf_req_net: self.pf_req_net.snapshot(),
            reply_net: self.reply_net.snapshot(),
            pf_reply_net: self.pf_reply_net.snapshot(),
            sm_ports,
            partition_ports,
            dram_queues,
        }
    }

    /// Always [`AdaptReport::default`]: the sequential loop has no
    /// engine selector. Kept only for the `RunRecord` literal in
    /// `perfbench/`; removed with it.
    pub fn adapt_report(&self) -> AdaptReport {
        AdaptReport::default()
    }

    /// The configuration this GPU was built with.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// The kernel bound to this GPU (the first tenant in tenant mode).
    pub fn kernel(&self) -> &Kernel {
        &self.kernels[0]
    }

    /// All co-resident kernels (one entry in legacy mode).
    pub fn kernels(&self) -> &[Kernel] {
        &self.kernels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{AddrPattern, AffinePattern, CtaTerm, ProgramBuilder};
    use crate::prefetch::null_factory;

    fn stride_kernel(ctas: u32, warps_per_cta: u32) -> Kernel {
        let pat = AddrPattern::Affine(AffinePattern {
            base: 0,
            cta_term: CtaTerm::Linear { pitch: 1 << 16 },
            warp_stride: 128,
            lane_stride: 4,
            iter_stride: 0,
        });
        let prog = ProgramBuilder::new().alu(4).ld(pat).wait().alu(4).build();
        Kernel::new("stride", (ctas, 1), warps_per_cta * 32, prog)
    }

    #[test]
    fn small_kernel_completes() {
        let cfg = GpuConfig::test_small();
        let mut gpu = Gpu::new(cfg, stride_kernel(8, 4), &*null_factory());
        let stats = gpu.run(1_000_000);
        assert_eq!(stats.ctas_launched, 8);
        assert_eq!(stats.ctas_completed, 8);
        assert!(stats.cycles > 0);
        assert!(stats.ipc() > 0.0);
        // 8 CTAs × 4 warps × 3 counted instructions (WaitLoads is free).
        assert_eq!(stats.warp_instructions, 8 * 4 * 3);
    }

    #[test]
    fn all_loads_reach_memory_once_per_line() {
        let cfg = GpuConfig::test_small();
        let mut gpu = Gpu::new(cfg, stride_kernel(4, 2), &*null_factory());
        let stats = gpu.run(1_000_000);
        // 4 CTAs × 2 warps, distinct lines → all miss, all read DRAM.
        assert_eq!(stats.l1d_demand_accesses, 8);
        assert_eq!(stats.l1d_demand_misses, 8);
        assert_eq!(stats.dram_reads, 8);
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = GpuConfig::test_small();
        let s1 = Gpu::new(cfg.clone(), stride_kernel(8, 4), &*null_factory()).run(1_000_000);
        let s2 = Gpu::new(cfg, stride_kernel(8, 4), &*null_factory()).run(1_000_000);
        assert_eq!(s1, s2);
    }

    #[test]
    fn demand_driven_distribution_launches_all_ctas() {
        // More CTAs than resident capacity forces demand-driven refill.
        let cfg = GpuConfig::test_small();
        let kernel = stride_kernel(64, 4);
        let mut gpu = Gpu::new(cfg, kernel, &*null_factory());
        let stats = gpu.run(5_000_000);
        assert_eq!(stats.ctas_completed, 64);
    }

    #[test]
    fn cycle_cap_stops_runaway() {
        let cfg = GpuConfig::test_small();
        let mut gpu = Gpu::new(cfg, stride_kernel(64, 4), &*null_factory());
        let stats = gpu.run(100);
        assert!(stats.cycles <= 100);
    }

    #[test]
    fn multi_kernel_app_runs_both_passes_with_shared_caches() {
        let cfg = GpuConfig::test_small();
        // Pass 1 writes nothing we model; pass 2 re-reads pass 1's data:
        // the second kernel must find it warm.
        let k1 = stride_kernel(8, 4);
        let k2 = {
            // Same addresses, different geometry (8 warps per CTA).
            let pat = AddrPattern::Affine(AffinePattern {
                base: 0,
                cta_term: CtaTerm::Linear { pitch: 1 << 15 },
                warp_stride: 128,
                lane_stride: 4,
                iter_stride: 0,
            });
            let prog = ProgramBuilder::new().ld(pat).wait().alu(2).build();
            Kernel::new("pass2", (4, 1), 256, prog)
        };
        let mut gpu = Gpu::new(cfg, k1.clone(), &*null_factory());
        let stats = gpu.run_app(&[k1.clone(), k2], 2_000_000);
        assert_eq!(stats.ctas_completed, 8 + 4);
        // Pass 1 reads 32 unique lines; pass 2's 4×8 warps re-read lines
        // inside the same footprint — DRAM reads must not double.
        let solo = Gpu::new(GpuConfig::test_small(), k1, &*null_factory()).run(1_000_000);
        assert!(
            stats.dram_reads < 2 * solo.dram_reads + 8,
            "second pass should hit caches: {} vs solo {}",
            stats.dram_reads,
            solo.dram_reads
        );
    }

    #[test]
    #[should_panic(expected = "rebind requires a drained SM")]
    fn rebind_rejects_a_busy_sm() {
        let cfg = GpuConfig::test_small();
        let k = stride_kernel(8, 4);
        let mut gpu = Gpu::new(cfg, k.clone(), &*null_factory());
        // Start but don't finish, then try to bind mid-flight.
        gpu.initial_fill();
        for _ in 0..10 {
            gpu.step();
        }
        gpu.bind_kernel(k);
    }

    #[test]
    fn relaunches_find_a_warm_l2() {
        // The whole-application model: the second launch re-reads the
        // same addresses and must be served by L2, not DRAM.
        let cfg = GpuConfig::test_small();
        let one = Gpu::new(cfg.clone(), stride_kernel(8, 4), &*null_factory()).run(1_000_000);
        let two = Gpu::new(cfg, stride_kernel(8, 4), &*null_factory()).run_launches(2, 1_000_000);
        assert_eq!(two.ctas_completed, 2 * one.ctas_completed);
        assert_eq!(
            two.dram_reads, one.dram_reads,
            "second launch must not re-read DRAM"
        );
        // The relaunch is served from cache (L1 or L2, depending on how
        // much the tiny test config retains).
        let cached_one = one.l1d_demand_hits + one.l2_hits;
        let cached_two = two.l1d_demand_hits + two.l2_hits;
        assert!(cached_two > cached_one, "{cached_two} vs {cached_one}");
    }

    /// Naive and wake-driven runs of the same setup agree on `Stats` and
    /// on the link report (blocked links are charged their stalls).
    fn assert_modes_agree(run: impl Fn(&mut Gpu) -> Stats, ctas: u32) {
        let cfg = GpuConfig::test_small();
        let mut wake = Gpu::new(cfg.clone(), stride_kernel(ctas, 4), &*null_factory());
        wake.set_fast_forward(true);
        let mut naive = Gpu::new(cfg, stride_kernel(ctas, 4), &*null_factory());
        naive.set_fast_forward(false);
        assert_eq!(run(&mut wake), run(&mut naive));
        assert_eq!(wake.link_report(), naive.link_report());
    }

    #[test]
    fn wake_driven_stepping_is_bit_identical_to_naive_stepping() {
        assert_modes_agree(|g| g.run(1_000_000), 16);
        let (skipped, jumps) = {
            let mut g = Gpu::new(
                GpuConfig::test_small(),
                stride_kernel(16, 4),
                &*null_factory(),
            );
            g.set_fast_forward(true);
            g.run(1_000_000);
            g.skip_counters()
        };
        assert!(
            jumps > 0 && skipped >= jumps,
            "memory waits are jumped over"
        );
    }

    #[test]
    fn wake_driven_stepping_is_bit_identical_across_relaunches() {
        assert_modes_agree(|g| g.run_launches(3, 1_000_000), 8);
    }

    #[test]
    fn wake_driven_stepping_is_bit_identical_under_a_cycle_cap() {
        // The cap can land inside a jump; the jump must clamp to it and
        // charge the partial window exactly as naive spinning.
        for cap in [50, 137, 500] {
            assert_modes_agree(|g| g.run(cap), 64);
        }
    }

    #[test]
    fn relaunch_cycles_are_cheaper_when_warm() {
        let cfg = GpuConfig::test_small();
        let one = Gpu::new(cfg.clone(), stride_kernel(16, 4), &*null_factory()).run(1_000_000);
        let two = Gpu::new(cfg, stride_kernel(16, 4), &*null_factory()).run_launches(2, 1_000_000);
        let second = two.cycles - one.cycles;
        assert!(
            second < one.cycles,
            "warm launch ({second}) should be faster than cold ({})",
            one.cycles
        );
    }

    #[test]
    fn link_report_sees_traffic_and_steady_state_never_grows() {
        let cfg = GpuConfig::test_small();
        let mut gpu = Gpu::new(cfg, stride_kernel(16, 4), &*null_factory());
        let stats = gpu.run(1_000_000);
        assert_eq!(stats.ctas_completed, 16);
        let report = gpu.link_report();
        assert!(report.req_net.high_water > 0, "demand traffic flowed");
        assert!(report.reply_net.high_water > 0, "replies flowed");
        assert!(report.sm_ports.high_water > 0);
        assert!(report.partition_ports.high_water > 0);
        assert!(report.dram_queues.high_water > 0);
        // Every ring on the memory path is sized from its producers'
        // in-flight bounds, so a run must never hit the growth valve.
        assert_eq!(report.total().grows, 0, "steady state must not allocate");
    }

    #[test]
    fn masks_cover_more_than_64_components() {
        // Due masks are built 64 components at a time; a machine wider
        // than one mask must still visit every SM and partition.
        let mut cfg = GpuConfig::test_small();
        cfg.num_sms = 70;
        cfg.num_partitions = 66;
        let kernel = stride_kernel(140, 2);
        let mut wake = Gpu::new(cfg.clone(), kernel.clone(), &*null_factory());
        wake.set_fast_forward(true);
        let mut naive = Gpu::new(cfg, kernel, &*null_factory());
        naive.set_fast_forward(false);
        let stats = wake.run(1_000_000);
        assert_eq!(stats.ctas_completed, 140);
        assert_eq!(stats, naive.run(1_000_000));
    }

    #[test]
    fn single_tenant_is_bit_identical_to_run_launches_under_every_policy() {
        // The degenerate case of the tenant layer: one kernel, any
        // policy, must reproduce the classic single-owner run exactly
        // (tenant 0's address/PC offsets are the identity).
        let cfg = GpuConfig::test_small();
        let legacy = Gpu::new(cfg.clone(), stride_kernel(16, 4), &*null_factory())
            .run_launches(1, 1_000_000);
        for policy in Partitioning::all() {
            let mut gpu = Gpu::new(cfg.clone(), stride_kernel(16, 4), &*null_factory());
            let (stats, per_kernel) = gpu.run_tenants(&[stride_kernel(16, 4)], policy, 1_000_000);
            assert_eq!(stats, legacy, "{policy} diverged from run_launches");
            assert_eq!(per_kernel.len(), 1);
            assert_eq!(per_kernel[0].ctas_completed, 16);
            assert_eq!(per_kernel[0].instructions, legacy.warp_instructions);
        }
    }

    #[test]
    fn multi_tenant_policies_complete_every_tenants_grid() {
        let cfg = GpuConfig::test_small();
        for policy in Partitioning::all() {
            let mut gpu = Gpu::new(cfg.clone(), stride_kernel(8, 4), &*null_factory());
            let tenants = [stride_kernel(8, 4), stride_kernel(12, 2)];
            let (stats, per_kernel) = gpu.run_tenants(&tenants, policy, 2_000_000);
            assert_eq!(per_kernel[0].ctas_completed, 8, "{policy}");
            assert_eq!(per_kernel[1].ctas_completed, 12, "{policy}");
            assert_eq!(stats.ctas_completed, 20, "{policy}");
            for k in &per_kernel {
                assert!(k.finish_cycle > k.start_cycle, "{policy}: empty lifetime");
                assert!(k.ipc() > 0.0, "{policy}: zero IPC");
            }
        }
    }

    #[test]
    fn tenant_runs_are_bit_identical_across_stepping_modes() {
        let cfg = GpuConfig::test_small();
        let tenants = [stride_kernel(12, 4), stride_kernel(8, 2)];
        for policy in Partitioning::all() {
            let [naive, wake] = [false, true].map(|ff| {
                let mut gpu = Gpu::new(cfg.clone(), tenants[0].clone(), &*null_factory());
                gpu.set_fast_forward(ff);
                gpu.run_tenants(&tenants, policy, 2_000_000)
            });
            assert_eq!(naive, wake, "{policy}");
        }
    }

    #[test]
    fn tenant_requests_never_cross_address_windows() {
        // Two co-resident tenants over identical grids: per-tenant DRAM
        // traffic must be attributed (non-zero for both) and the L2
        // attribution must sum to the machine-wide counters.
        let cfg = GpuConfig::test_small();
        let tenants = [stride_kernel(8, 4), stride_kernel(8, 4)];
        let mut gpu = Gpu::new(cfg, tenants[0].clone(), &*null_factory());
        let (stats, per_kernel) = gpu.run_tenants(&tenants, Partitioning::Shared, 2_000_000);
        let l2: u64 = per_kernel.iter().map(|k| k.l2_accesses).sum();
        assert_eq!(l2, stats.l2_accesses);
        for k in &per_kernel {
            assert!(k.dram_reads > 0, "tenant saw no DRAM traffic");
        }
    }
}
