//! Warp schedulers.
//!
//! The baseline for the whole evaluation is the two-level scheduler
//! (Narasiman et al., MICRO'11; Gebhart et al., ISCA'11) with an 8-entry
//! ready queue (Table III). [`two_level::TwoLevelScheduler`] implements it
//! together with the two policy extensions the paper builds on it:
//! leading-warp prioritization and eager prefetch wake-up (PAS, §V-A) and
//! ORCH-style group-interleaved promotion (Jog et al., ISCA'13).
//!
//! An SM holds its policy as a [`Scheduler`] enum, so the per-cycle
//! `pick` is a `match` over three concrete types and the SM's issue
//! predicate inlines into each policy's scan.

pub mod slotlist;
mod two_level;

pub use slotlist::SlotList;
pub use two_level::TwoLevelScheduler;

use crate::config::{GpuConfig, SchedulerKind};
use crate::types::{Cycle, WarpSlot};

/// Scheduling policy interface driven by the SM each cycle.
///
/// The SM notifies the scheduler of warp lifecycle events and asks it to
/// `pick` one issuable warp per issue slot. `can_issue` reflects
/// microarchitectural readiness (not busy, not at a barrier, LD/ST queue
/// space for memory ops).
///
/// `pick` is generic over the predicate, so the trait is implemented by
/// concrete types (and the [`Scheduler`] enum over them), not used as a
/// trait object.
pub trait WarpScheduler: Send {
    /// Display name.
    fn name(&self) -> &'static str;
    /// A warp was launched into slot `w`. `leading` marks the CTA's
    /// leading warp; `group` is the warp's scheduling-group hint
    /// (used by ORCH-style grouping).
    fn on_launch(&mut self, w: WarpSlot, leading: bool, group: u8);
    /// Warp `w` finished its program.
    fn on_finish(&mut self, w: WarpSlot);
    /// Warp `w` hit a long-latency dependence (descheduled).
    fn on_long_latency(&mut self, w: WarpSlot);
    /// Warp `w`'s outstanding loads all returned (re-schedulable).
    fn on_ready_again(&mut self, w: WarpSlot);
    /// Prefetched data bound to warp `w` arrived (PAS eager wake-up).
    /// Returns `true` if the scheduler actually promoted the warp.
    fn on_prefetch_fill(&mut self, _w: WarpSlot) -> bool {
        false
    }
    /// Leading warp `w` has served its purpose (issued its first load,
    /// registering the CTA's base addresses): drop its priority so it no
    /// longer runs ahead of its CTA (§V-A: leading warps are prioritized
    /// "until they compute the base address").
    fn on_leading_done(&mut self, _w: WarpSlot) {}
    /// Choose one warp to issue at `now`. A pick that finds no issuable
    /// warp must leave the scheduler unchanged: the cycle loop parks an
    /// SM whose step changes nothing.
    fn pick(&mut self, now: Cycle, can_issue: impl FnMut(WarpSlot) -> bool) -> Option<WarpSlot>;
}

/// Loose round-robin over all resident warps.
///
/// The rotation is kept as a pointer into a [`SlotList`] rather than an
/// integer index, making retirement O(1). The seed's index arithmetic
/// had one observable quirk this preserves exactly: when the cursor's
/// warp retires from the tail, the cursor lands "one past the end" — a
/// position the *next launched* warp occupies (so rotation resumes
/// there), and which otherwise wraps to the head at the next `pick`.
#[derive(Debug, Default)]
pub struct LrrScheduler {
    warps: SlotList,
    cursor: Option<WarpSlot>,
    cursor_at_end: bool,
}

impl WarpScheduler for LrrScheduler {
    fn name(&self) -> &'static str {
        "LRR"
    }

    fn on_launch(&mut self, w: WarpSlot, _leading: bool, _group: u8) {
        self.warps.push_back(w);
        if self.cursor_at_end {
            // The new warp occupies the position the cursor points at.
            self.cursor = Some(w);
            self.cursor_at_end = false;
        }
    }

    fn on_finish(&mut self, w: WarpSlot) {
        if !self.warps.contains(w) {
            return;
        }
        if self.cursor == Some(w) {
            match self.warps.next_of(w) {
                Some(n) => self.cursor = Some(n),
                None => {
                    self.cursor = None;
                    self.cursor_at_end = true;
                }
            }
        }
        self.warps.remove(w);
    }

    fn on_long_latency(&mut self, _w: WarpSlot) {}

    fn on_ready_again(&mut self, _w: WarpSlot) {}

    fn pick(
        &mut self,
        _now: Cycle,
        mut can_issue: impl FnMut(WarpSlot) -> bool,
    ) -> Option<WarpSlot> {
        let head = self.warps.front()?;
        let start = match self.cursor {
            Some(c) if !self.cursor_at_end => c,
            _ => head,
        };
        let mut w = start;
        loop {
            if can_issue(w) {
                self.cursor = Some(self.warps.next_of(w).unwrap_or(head));
                self.cursor_at_end = false;
                return Some(w);
            }
            w = self.warps.next_of(w).unwrap_or(head);
            if w == start {
                return None;
            }
        }
    }
}

/// Greedy-then-oldest: keep issuing the current warp until it cannot
/// issue, then fall back to the oldest (launch-order) issuable warp.
/// With `pas` set, leading warps are greedily scheduled first "until
/// they compute the base address" (§V-A's GTO adaptation of PAS).
#[derive(Debug, Default)]
pub struct GtoScheduler {
    warps: SlotList, // launch order
    current: Option<WarpSlot>,
    pas: bool,
    leading: SlotList,
}

impl GtoScheduler {
    /// Plain GTO.
    pub fn new() -> Self {
        Self::default()
    }

    /// The PAS variant: leading warps preempt the greedy pick until
    /// their base addresses are registered.
    pub fn with_leading_priority() -> Self {
        GtoScheduler {
            pas: true,
            ..Self::default()
        }
    }
}

impl WarpScheduler for GtoScheduler {
    fn name(&self) -> &'static str {
        if self.pas {
            "PA-GTO"
        } else {
            "GTO"
        }
    }

    fn on_launch(&mut self, w: WarpSlot, leading: bool, _group: u8) {
        self.warps.push_back(w);
        if self.pas && leading {
            self.leading.push_back(w);
        }
    }

    fn on_finish(&mut self, w: WarpSlot) {
        self.warps.remove(w);
        self.leading.remove(w);
        if self.current == Some(w) {
            self.current = None;
        }
    }

    fn on_long_latency(&mut self, w: WarpSlot) {
        if self.current == Some(w) {
            self.current = None;
        }
    }

    fn on_ready_again(&mut self, _w: WarpSlot) {}

    fn on_leading_done(&mut self, w: WarpSlot) {
        self.leading.remove(w);
    }

    fn pick(
        &mut self,
        _now: Cycle,
        mut can_issue: impl FnMut(WarpSlot) -> bool,
    ) -> Option<WarpSlot> {
        // Leading warps that have not yet computed their CTA's base
        // address jump the greedy order (§V-A).
        if self.pas {
            if let Some(w) = self.leading.iter().find(|&w| can_issue(w)) {
                return Some(w);
            }
        }
        if let Some(c) = self.current {
            if can_issue(c) {
                return Some(c);
            }
        }
        for w in self.warps.iter() {
            if can_issue(w) {
                self.current = Some(w);
                return Some(w);
            }
        }
        None
    }
}

/// The warp scheduler of one SM: one of the three policy families.
#[derive(Debug)]
pub enum Scheduler {
    /// Loose round-robin.
    Lrr(LrrScheduler),
    /// Greedy-then-oldest, with or without PAS leading-warp priority.
    Gto(GtoScheduler),
    /// Two-level: TLV, PA-TLV (with or without eager wake-up), ORCH-TLV.
    TwoLevel(TwoLevelScheduler),
}

/// Forward a call to the policy inside a [`Scheduler`].
macro_rules! dispatch {
    ($sched:expr, $s:ident => $call:expr) => {
        match $sched {
            Scheduler::Lrr($s) => $call,
            Scheduler::Gto($s) => $call,
            Scheduler::TwoLevel($s) => $call,
        }
    };
}

impl Scheduler {
    /// The warps [`WarpScheduler::pick`] can choose from until the next
    /// scheduler event: the two-level ready queue, or `None` when every
    /// resident warp is a candidate (LRR, GTO). Promotion into the ready
    /// queue happens only in event handlers, never in `pick`.
    pub fn ready_queue(&self) -> Option<&[WarpSlot]> {
        match self {
            Scheduler::TwoLevel(s) => Some(s.ready()),
            Scheduler::Lrr(_) | Scheduler::Gto(_) => None,
        }
    }
}

impl WarpScheduler for Scheduler {
    fn name(&self) -> &'static str {
        dispatch!(self, s => s.name())
    }

    fn on_launch(&mut self, w: WarpSlot, leading: bool, group: u8) {
        dispatch!(self, s => s.on_launch(w, leading, group))
    }

    fn on_finish(&mut self, w: WarpSlot) {
        dispatch!(self, s => s.on_finish(w))
    }

    fn on_long_latency(&mut self, w: WarpSlot) {
        dispatch!(self, s => s.on_long_latency(w))
    }

    fn on_ready_again(&mut self, w: WarpSlot) {
        dispatch!(self, s => s.on_ready_again(w))
    }

    fn on_prefetch_fill(&mut self, w: WarpSlot) -> bool {
        dispatch!(self, s => s.on_prefetch_fill(w))
    }

    fn on_leading_done(&mut self, w: WarpSlot) {
        dispatch!(self, s => s.on_leading_done(w))
    }

    #[inline]
    fn pick(&mut self, now: Cycle, can_issue: impl FnMut(WarpSlot) -> bool) -> Option<WarpSlot> {
        dispatch!(self, s => s.pick(now, can_issue))
    }
}

/// Build the scheduler selected by `cfg`.
pub fn make_scheduler(cfg: &GpuConfig) -> Scheduler {
    let q = cfg.ready_queue_size;
    match cfg.scheduler {
        SchedulerKind::Lrr => Scheduler::Lrr(LrrScheduler::default()),
        SchedulerKind::Gto => Scheduler::Gto(GtoScheduler::new()),
        SchedulerKind::PasGto => Scheduler::Gto(GtoScheduler::with_leading_priority()),
        SchedulerKind::TwoLevel => Scheduler::TwoLevel(TwoLevelScheduler::new(q, false, false)),
        SchedulerKind::Pas => Scheduler::TwoLevel(TwoLevelScheduler::new(q, true, false)),
        SchedulerKind::PasNoWakeup => Scheduler::TwoLevel(TwoLevelScheduler::without_wakeup(q)),
        SchedulerKind::OrchGrouped => Scheduler::TwoLevel(TwoLevelScheduler::new(q, false, true)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lrr_rotates() {
        let mut s = LrrScheduler::default();
        for w in 0..3 {
            s.on_launch(w, false, 0);
        }
        let mut all = |_: WarpSlot| true;
        assert_eq!(s.pick(0, &mut all), Some(0));
        assert_eq!(s.pick(0, &mut all), Some(1));
        assert_eq!(s.pick(0, &mut all), Some(2));
        assert_eq!(s.pick(0, &mut all), Some(0));
    }

    #[test]
    fn lrr_skips_unissuable() {
        let mut s = LrrScheduler::default();
        for w in 0..3 {
            s.on_launch(w, false, 0);
        }
        let mut only_2 = |w: WarpSlot| w == 2;
        assert_eq!(s.pick(0, &mut only_2), Some(2));
        assert_eq!(s.pick(0, &mut only_2), Some(2));
    }

    #[test]
    fn lrr_finish_keeps_rotation_sane() {
        let mut s = LrrScheduler::default();
        for w in 0..3 {
            s.on_launch(w, false, 0);
        }
        let mut all = |_: WarpSlot| true;
        assert_eq!(s.pick(0, &mut all), Some(0));
        s.on_finish(0);
        assert_eq!(s.pick(0, &mut all), Some(1));
        assert_eq!(s.pick(0, &mut all), Some(2));
        assert_eq!(s.pick(0, &mut all), Some(1));
    }

    #[test]
    fn gto_sticks_with_current() {
        let mut s = GtoScheduler::default();
        for w in 0..3 {
            s.on_launch(w, false, 0);
        }
        let mut all = |_: WarpSlot| true;
        assert_eq!(s.pick(0, &mut all), Some(0));
        assert_eq!(s.pick(0, &mut all), Some(0));
        s.on_long_latency(0);
        let mut not_0 = |w: WarpSlot| w != 0;
        assert_eq!(s.pick(0, &mut not_0), Some(1));
        assert_eq!(s.pick(0, &mut not_0), Some(1));
    }

    #[test]
    fn gto_falls_back_to_oldest() {
        let mut s = GtoScheduler::default();
        for w in 0..3 {
            s.on_launch(w, false, 0);
        }
        let mut only_2 = |w: WarpSlot| w == 2;
        assert_eq!(s.pick(0, &mut only_2), Some(2));
        let mut all = |_: WarpSlot| true;
        // Greedy: stays on 2 even though 0 is older.
        assert_eq!(s.pick(0, &mut all), Some(2));
    }

    #[test]
    fn factory_builds_all_kinds() {
        for kind in [
            SchedulerKind::Lrr,
            SchedulerKind::Gto,
            SchedulerKind::TwoLevel,
            SchedulerKind::Pas,
            SchedulerKind::PasNoWakeup,
            SchedulerKind::OrchGrouped,
        ] {
            let mut cfg = GpuConfig::fermi_gtx480();
            cfg.scheduler = kind;
            let s = make_scheduler(&cfg);
            assert!(!s.name().is_empty());
        }
    }
}
