//! Grid dispatch: co-resident kernel contexts.
//!
//! Every run launches its grids through one dispatch path. A bound
//! kernel is a *tenant* with its own CTA iterator, per-kernel statistics
//! and private address/PC windows (see [`crate::sm::kernel_addr_offset`]);
//! a solo run is the one-tenant case. Three partitioning policies decide
//! where each tenant may place CTAs (`TenantState::placement`):
//!
//! * [`Partitioning::Exclusive`] — tenants run back to back, each owning
//!   every SM while active. Solo runs use it.
//! * [`Partitioning::SmSplit`] — an MPS-style static split: tenant `t`
//!   owns the contiguous SM range `[t·S/N, (t+1)·S/N)`.
//! * [`Partitioning::Shared`] — true intra-SM co-location: every SM
//!   hosts CTAs of every tenant under a per-SM per-tenant quota.
//!
//! With two or more tenants, a CIAO-style interference monitor samples
//! per-tenant L2 miss deltas every [`TENANT_WINDOW`] cycles and
//! duty-cycle throttles the tenant that is thrashing the shared L2/DRAM
//! path (see [`InterferenceMonitor`]). The monitor reads only simulated
//! state, so its decisions — and therefore all statistics — remain
//! bit-identical under naive and wake-driven stepping.

use std::ops::Range;

use crate::cta_scheduler::CtaDistributor;
use crate::kernel::Kernel;
use crate::types::{Cycle, MAX_TENANTS};

/// Cycles per interference-monitor window (CIAO samples at epoch
/// granularity too).
pub const TENANT_WINDOW: Cycle = 4096;

/// How co-resident kernels share the machine's SMs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Partitioning {
    /// Tenants run back to back, each owning the whole machine while it
    /// runs (time-sharing; the policy of solo runs).
    Exclusive,
    /// Static SM partition (MPS-style): tenant `t` owns a contiguous
    /// slice of the SMs for the whole run.
    SmSplit,
    /// Intra-SM co-location: every SM hosts CTAs of every tenant under
    /// a per-SM per-tenant CTA quota.
    Shared,
}

impl Partitioning {
    /// Stable lowercase name (CLI flags, digests, report keys).
    pub fn name(self) -> &'static str {
        match self {
            Partitioning::Exclusive => "exclusive",
            Partitioning::SmSplit => "sm-split",
            Partitioning::Shared => "shared",
        }
    }

    /// All policies, in a fixed order (sweep/report iteration).
    pub fn all() -> [Partitioning; 3] {
        [
            Partitioning::Exclusive,
            Partitioning::SmSplit,
            Partitioning::Shared,
        ]
    }
}

impl std::fmt::Display for Partitioning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Partitioning {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "exclusive" => Ok(Partitioning::Exclusive),
            "sm-split" | "smsplit" | "sm_split" => Ok(Partitioning::SmSplit),
            "shared" => Ok(Partitioning::Shared),
            other => Err(format!(
                "unknown partitioning `{other}` (valid: exclusive, sm-split, shared)"
            )),
        }
    }
}

/// One tenant's dispatch context: its private CTA iterator and its
/// lifetime marks in machine cycles. The tenant's kernel is the GPU's
/// bound kernel at the same index.
#[derive(Debug, Clone)]
pub struct KernelCtx {
    /// Grid iterator dispensing this tenant's CTA ids.
    pub distributor: CtaDistributor,
    /// Cycle the first CTA launched (`None` until it has).
    pub start_cycle: Option<Cycle>,
    /// Cycle the last CTA completed (`None` while running).
    pub finish_cycle: Option<Cycle>,
}

/// CIAO-style interference monitor: per window, attribute L2 misses to
/// tenants (the tags flow end to end with every request) and duty-cycle
/// throttle the dominant thrasher.
///
/// Decision rule, evaluated once per [`TENANT_WINDOW`] cycles from
/// bit-identical simulated counters:
///
/// * compute each tenant's L2-miss delta over the window;
/// * if at least two tenants are SM-resident (actually contending — a
///   tenant waiting its `Exclusive` turn occupies no SM and is not a
///   contender), the total delta exceeds [`Self::MISS_BUDGET`], and one
///   tenant contributes more than half of it, escalate that tenant's
///   throttle level (to at most [`Self::MAX_LEVEL`]) and decay everyone
///   else's;
/// * otherwise decay every level toward zero.
///
/// Throttle level `L` gates a tenant's memory-op issue to cycles where
/// `now & ((1 << L) - 1) == 0` — a 1/2^L duty cycle — while compute ops
/// issue unhindered, mirroring CIAO's "slow down, don't stop" policy.
#[derive(Debug, Clone, Default)]
pub struct InterferenceMonitor {
    last_misses: [u64; MAX_TENANTS],
    levels: [u8; MAX_TENANTS],
    /// Windows evaluated (host diagnostics).
    pub windows: u64,
    /// Escalation decisions taken (host diagnostics).
    pub escalations: u64,
}

impl InterferenceMonitor {
    /// L2-miss deltas per window below which the path is considered
    /// uncontended (≈ one miss per 4 cycles machine-wide).
    pub const MISS_BUDGET: u64 = TENANT_WINDOW / 4;
    /// Deepest duty-cycle gate: 1/8 of cycles may issue memory ops.
    pub const MAX_LEVEL: u8 = 3;

    /// Fresh monitor with every level at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Close a window given the *cumulative* per-tenant L2 miss counters
    /// and which tenants are SM-resident (contending); returns the
    /// throttle levels to install for the next window.
    pub fn on_window(
        &mut self,
        misses: [u64; MAX_TENANTS],
        running: [bool; MAX_TENANTS],
    ) -> [u8; MAX_TENANTS] {
        self.windows += 1;
        let mut delta = [0u64; MAX_TENANTS];
        let mut total = 0u64;
        for k in 0..MAX_TENANTS {
            delta[k] = misses[k].saturating_sub(self.last_misses[k]);
            total += delta[k];
        }
        self.last_misses = misses;
        let active = running.iter().filter(|&&r| r).count();
        let culprit = (0..MAX_TENANTS).max_by_key(|&k| (delta[k], std::cmp::Reverse(k)));
        for k in 0..MAX_TENANTS {
            self.levels[k] = self.levels[k].saturating_sub(1);
        }
        if active >= 2 && total > Self::MISS_BUDGET {
            if let Some(c) = culprit {
                if running[c] && delta[c] * 2 > total {
                    // Undo the decay and escalate the dominant thrasher.
                    self.levels[c] = (self.levels[c] + 2).min(Self::MAX_LEVEL);
                    self.escalations += 1;
                }
            }
        }
        self.levels
    }

    /// Current throttle levels.
    pub fn levels(&self) -> [u8; MAX_TENANTS] {
        self.levels
    }
}

/// Grid dispatch state of one launch: a context per bound kernel, the
/// partitioning policy, and the interference monitor (which runs only
/// while two or more tenants share the machine).
#[derive(Debug, Clone)]
pub struct TenantState {
    /// One context per tenant; index is the tenant's [`crate::types::KernelId`].
    pub ctxs: Vec<KernelCtx>,
    /// The active SM-partitioning policy.
    pub policy: Partitioning,
    /// The interference monitor driving per-tenant throttles.
    pub monitor: InterferenceMonitor,
}

impl TenantState {
    /// Fresh dispatch state over the full grid of each of `kernels`.
    pub fn new(kernels: &[Kernel], policy: Partitioning) -> Self {
        TenantState {
            ctxs: kernels
                .iter()
                .map(|k| KernelCtx {
                    distributor: CtaDistributor::new(k.num_ctas()),
                    start_cycle: None,
                    finish_cycle: None,
                })
                .collect(),
            policy,
            monitor: InterferenceMonitor::new(),
        }
    }

    /// Where tenant `t` may place CTAs on `num_sms` SMs of `cap` CTA
    /// slots each: its SM range and per-SM CTA quota, or `None` while it
    /// waits its `Exclusive` turn (the first unfinished tenant runs).
    /// `SmSplit` ranges are the contiguous equal split, empty for some
    /// tenant when there are fewer SMs than tenants.
    pub(crate) fn placement(
        &self,
        t: usize,
        num_sms: usize,
        cap: usize,
    ) -> Option<(Range<usize>, usize)> {
        let n = self.ctxs.len();
        match self.policy {
            Partitioning::Exclusive => {
                let active = self.ctxs.iter().position(|c| c.finish_cycle.is_none());
                (active == Some(t)).then_some((0..num_sms, cap))
            }
            Partitioning::SmSplit => Some((t * num_sms / n..(t + 1) * num_sms / n, cap)),
            Partitioning::Shared => Some((0..num_sms, (cap / n).max(1))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitioning_round_trips_names() {
        for p in Partitioning::all() {
            assert_eq!(p.name().parse::<Partitioning>().unwrap(), p);
        }
        assert!("bogus".parse::<Partitioning>().is_err());
    }

    #[test]
    fn monitor_throttles_dominant_thrasher_only_when_contended() {
        let mut m = InterferenceMonitor::new();
        let running = [true, true, false, false];
        // Quiet window: no throttling.
        let l = m.on_window([10, 10, 0, 0], running);
        assert_eq!(l, [0; MAX_TENANTS]);
        // Tenant 0 thrashes: escalated, tenant 1 untouched.
        let l = m.on_window([10 + 5000, 20, 0, 0], running);
        assert_eq!(l[0], 2);
        assert_eq!(l[1], 0);
        // Contention stops: levels decay window by window.
        let l = m.on_window([5010, 20, 0, 0], running);
        assert_eq!(l[0], 1);
        let l = m.on_window([5010, 20, 0, 0], running);
        assert_eq!(l, [0; MAX_TENANTS]);
    }

    #[test]
    fn monitor_never_throttles_a_solo_tenant() {
        let mut m = InterferenceMonitor::new();
        let l = m.on_window([1_000_000, 0, 0, 0], [true, false, false, false]);
        assert_eq!(l, [0; MAX_TENANTS]);
    }

    #[test]
    fn sm_split_ranges_cover_all_sms() {
        use crate::isa::ProgramBuilder;
        let prog = ProgramBuilder::new().alu(1).build();
        let k = Kernel::new("k", (4, 1), 64, prog);
        let ts = TenantState::new(&[k.clone(), k.clone(), k], Partitioning::SmSplit);
        let mut covered = [false; 15];
        for t in 0..3 {
            let (sms, quota) = ts.placement(t, 15, 8).unwrap();
            assert_eq!(quota, 8, "a tenant owns its SMs' slots");
            for sm in sms {
                assert!(!covered[sm], "overlapping SM ranges");
                covered[sm] = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn placement_follows_the_policy() {
        use crate::isa::ProgramBuilder;
        let prog = ProgramBuilder::new().alu(1).build();
        let k = Kernel::new("k", (4, 1), 64, prog);
        let mut ts = TenantState::new(&[k.clone(), k.clone(), k], Partitioning::Exclusive);
        assert_eq!(ts.placement(0, 15, 8), Some((0..15, 8)));
        assert_eq!(ts.placement(1, 15, 8), None, "waits its turn");
        ts.ctxs[0].finish_cycle = Some(10);
        assert_eq!(ts.placement(0, 15, 8), None);
        assert_eq!(ts.placement(1, 15, 8), Some((0..15, 8)));
        ts.policy = Partitioning::Shared;
        assert_eq!(ts.placement(2, 15, 8), Some((0..15, 2)));
        assert_eq!(ts.placement(2, 15, 2), Some((0..15, 1)), "quota floor");
        ts.policy = Partitioning::SmSplit;
        assert_eq!(
            ts.placement(0, 2, 8),
            Some((0..0, 8)),
            "fewer SMs than tenants"
        );
    }
}
