//! Two-level warp scheduler, with the PAS and ORCH policy extensions.
//!
//! Baseline behaviour (Narasiman et al.): a bounded *ready queue* holds
//! the warps considered for issue; all other warps sit in a *pending
//! queue*. When a ready warp hits a long-latency load dependence it is
//! demoted to pending and an eligible pending warp is promoted.
//!
//! PAS (§V-A) changes exactly two things:
//! 1. warps carrying the one-bit *leading warp marker* are kept at the
//!    front of the ready queue (and displace a trailing ready warp when
//!    the queue is full), so every CTA's base address is discovered as
//!    early as possible (Fig. 8b);
//! 2. when prefetched data bound to a pending warp arrives, that warp is
//!    *eagerly woken*: one ready warp is forcibly pushed to pending and
//!    the target warp takes its place, so the data is consumed before L1
//!    evicts it.
//!
//! ORCH grouping (Jog et al.) instead interleaves promotion across
//! scheduling groups so consecutive warps run in different groups.

use super::slotlist::SlotList;
use super::WarpScheduler;
use crate::types::{Cycle, WarpSlot};

/// Per-warp bookkeeping.
#[derive(Debug, Clone, Copy, Default)]
struct WarpInfo {
    resident: bool,
    in_ready: bool,
    /// May be promoted (not blocked on memory).
    eligible: bool,
    leading: bool,
    group: u8,
    /// Prefetched data arrived while the warp was memory-blocked; wake
    /// it eagerly the moment it becomes eligible.
    wake_armed: bool,
}

/// Two-level scheduler; `pas` and `grouped` select the policy extensions.
///
/// The pending queue, which holds up to every resident warp, is an
/// intrusive [`SlotList`]: demote, wake-up, and finish events mutate it
/// in O(1) through per-warp index arrays. The ready queue holds at most
/// `capacity` warps (8 in Table III) and is a short array, cheap to
/// edit in place. Both keep exact FIFO order — and therefore the PAS
/// leading-segment and promotion semantics. A count of promotable
/// pending warps lets promotion return at once when there are none,
/// which is the common case on memory-bound kernels: every pending
/// warp is blocked on its loads.
#[derive(Debug)]
pub struct TwoLevelScheduler {
    capacity: usize,
    /// At most `capacity` warps in priority order. A short array rather
    /// than a [`SlotList`]: `pick` scans it on every issue slot, and a
    /// contiguous scan issues its loads in parallel where a linked walk
    /// chains them.
    ready: Vec<WarpSlot>,
    pending: SlotList,
    /// Pending warps that are eligible (not blocked on memory). Every
    /// pending warp is resident and outside the ready queue, so this is
    /// the number of warps [`Self::promotion_candidate`] can return.
    /// Maintained by the `pending_*` and `set_eligible` helpers.
    promotable: usize,
    info: Vec<WarpInfo>,
    pas: bool,
    grouped: bool,
    wakeup: bool,
    last_group: u8,
    /// Eager wake-ups performed (stats surface).
    pub wakeups: u64,
}

impl TwoLevelScheduler {
    /// `capacity` ready-queue entries (8 in Table III).
    pub fn new(capacity: usize, pas: bool, grouped: bool) -> Self {
        assert!(capacity > 0);
        TwoLevelScheduler {
            capacity,
            ready: Vec::with_capacity(capacity),
            pending: SlotList::new(),
            promotable: 0,
            info: Vec::new(),
            pas,
            grouped,
            wakeup: pas,
            last_group: u8::MAX,
            wakeups: 0,
        }
    }

    /// PAS with the eager prefetch wake-up disabled (Fig. 14a ablation).
    pub fn without_wakeup(capacity: usize) -> Self {
        let mut s = Self::new(capacity, true, false);
        s.wakeup = false;
        s
    }

    fn info_mut(&mut self, w: WarpSlot) -> &mut WarpInfo {
        if self.info.len() <= w {
            self.info.resize(w + 1, WarpInfo::default());
        }
        &mut self.info[w]
    }

    /// Insert into the ready queue honouring the leading-segment rule.
    /// The scan for the first trailing warp is bounded by `capacity`
    /// (8 in Table III) and cannot be cached as a pointer: a warp that
    /// loses its leading flag in place ([`WarpScheduler::on_leading_done`])
    /// silently moves the segment boundary.
    fn ready_insert(&mut self, w: WarpSlot) {
        debug_assert!(self.ready.len() < self.capacity);
        let leading = self.info[w].leading;
        self.info[w].in_ready = true;
        if self.pas && leading {
            // After the last leading warp, before the first trailing one.
            let pos = self.ready.iter().position(|&x| !self.info[x].leading);
            self.ready.insert(pos.unwrap_or(self.ready.len()), w);
        } else {
            self.ready.push(w);
        }
    }

    fn ready_remove(&mut self, w: WarpSlot) {
        if let Some(i) = self.ready.iter().position(|&x| x == w) {
            self.ready.remove(i);
        }
        self.info[w].in_ready = false;
    }

    fn pending_push_back(&mut self, w: WarpSlot) {
        self.pending.push_back(w);
        self.promotable += self.info[w].eligible as usize;
    }

    fn pending_push_front(&mut self, w: WarpSlot) {
        self.pending.push_front(w);
        self.promotable += self.info[w].eligible as usize;
    }

    fn pending_remove(&mut self, w: WarpSlot) {
        if self.pending.remove(w) {
            self.promotable -= self.info[w].eligible as usize;
        }
    }

    fn set_eligible(&mut self, w: WarpSlot, eligible: bool) {
        if self.info[w].eligible != eligible && self.pending.contains(w) {
            if eligible {
                self.promotable += 1;
            } else {
                self.promotable -= 1;
            }
        }
        self.info[w].eligible = eligible;
    }

    /// [`Self::promotable`] recounted from the pending queue.
    fn promotable_recount(&self) -> usize {
        self.pending
            .iter()
            .filter(|&w| self.info[w].resident && self.info[w].eligible && !self.info[w].in_ready)
            .count()
    }

    /// Choose the next pending warp to promote, honouring policy order.
    fn promotion_candidate(&self) -> Option<WarpSlot> {
        let eligible =
            |w: WarpSlot| self.info[w].resident && self.info[w].eligible && !self.info[w].in_ready;
        if self.pas {
            // Leading warps first, then FIFO.
            if let Some(w) = self
                .pending
                .iter()
                .find(|&w| eligible(w) && self.info[w].leading)
            {
                return Some(w);
            }
        }
        if self.grouped {
            // Prefer a warp from a different group than the last promoted.
            if let Some(w) = self
                .pending
                .iter()
                .find(|&w| eligible(w) && self.info[w].group != self.last_group)
            {
                return Some(w);
            }
        }
        self.pending.iter().find(|&w| eligible(w))
    }

    /// Fill free ready-queue slots from the pending queue.
    fn promote(&mut self) {
        debug_assert_eq!(self.promotable, self.promotable_recount());
        while self.promotable > 0 && self.ready.len() < self.capacity {
            let Some(w) = self.promotion_candidate() else {
                break;
            };
            self.pending_remove(w);
            self.last_group = self.info[w].group;
            self.ready_insert(w);
        }
    }

    /// Demote one trailing (non-leading if possible) ready warp to make
    /// room. Returns `true` if a slot was freed.
    fn displace_one(&mut self) -> bool {
        // Scan from the back: prefer the newest trailing warp.
        let victim = self
            .ready
            .iter()
            .rev()
            .copied()
            .find(|&x| !self.info[x].leading)
            .or_else(|| self.ready.last().copied());
        let Some(v) = victim else { return false };
        self.ready_remove(v);
        // The displaced warp is not memory-blocked: keep it eligible.
        self.info[v].eligible = true;
        self.pending_push_front(v);
        true
    }

    /// Eagerly place `w` into the ready queue: take a free slot if one
    /// exists, otherwise move `w` to the front of the pending queue so
    /// it is promoted next. Displacing an actively running warp proved
    /// counter-productive (it breaks the pipeline the prefetch was
    /// trying to feed), so the wake-up is gentle when the queue is full.
    fn force_into_ready(&mut self, w: WarpSlot) -> bool {
        self.pending_remove(w);
        if self.ready.len() < self.capacity {
            self.ready_insert(w);
        } else {
            self.pending_push_front(w);
        }
        true
    }

    /// Number of warps currently in the ready queue (test/diagnostics).
    pub fn ready_len(&self) -> usize {
        self.ready.len()
    }

    /// The ready queue: the only warps [`WarpScheduler::pick`] chooses
    /// from until the next scheduler event.
    pub fn ready(&self) -> &[WarpSlot] {
        &self.ready
    }

    /// Ready-queue contents in priority order (test/diagnostics).
    pub fn ready_order(&self) -> Vec<WarpSlot> {
        self.ready.clone()
    }

    /// Pending-queue contents in FIFO order (test/diagnostics).
    pub fn pending_order(&self) -> Vec<WarpSlot> {
        self.pending.iter().collect()
    }
}

impl WarpScheduler for TwoLevelScheduler {
    fn name(&self) -> &'static str {
        match (self.pas, self.grouped) {
            (true, _) => "PA-TLV",
            (false, true) => "ORCH-TLV",
            (false, false) => "TLV",
        }
    }

    fn on_launch(&mut self, w: WarpSlot, leading: bool, group: u8) {
        *self.info_mut(w) = WarpInfo {
            resident: true,
            in_ready: false,
            eligible: true,
            leading,
            group,
            wake_armed: false,
        };
        if self.ready.len() < self.capacity {
            self.ready_insert(w);
            self.last_group = group;
        } else if self.pas && leading {
            // Leading warps preempt a trailing ready warp (Fig. 8b).
            if self.displace_one() {
                self.ready_insert(w);
            } else {
                self.pending_push_back(w);
            }
        } else {
            self.pending_push_back(w);
        }
    }

    fn on_finish(&mut self, w: WarpSlot) {
        self.ready_remove(w);
        self.pending_remove(w);
        self.info[w] = WarpInfo::default();
        self.promote();
    }

    fn on_long_latency(&mut self, w: WarpSlot) {
        self.ready_remove(w);
        self.set_eligible(w, false);
        if !self.pending.contains(w) {
            self.pending_push_back(w);
        }
        self.promote();
    }

    fn on_ready_again(&mut self, w: WarpSlot) {
        if !self.info[w].resident {
            return;
        }
        self.set_eligible(w, true);
        if self.info[w].wake_armed && !self.info[w].in_ready {
            // A prefetch landed while this warp was blocked: wake it the
            // moment it is schedulable so the data isn't evicted first.
            self.info[w].wake_armed = false;
            if self.force_into_ready(w) {
                self.wakeups += 1;
            }
            return;
        }
        self.promote();
    }

    fn on_prefetch_fill(&mut self, w: WarpSlot) -> bool {
        if !self.pas || !self.wakeup {
            return false;
        }
        let Some(info) = self.info.get(w).copied() else {
            return false;
        };
        if !info.resident || info.in_ready {
            return false;
        }
        if !info.eligible {
            // Still blocked on its own loads: arm the wake-up for the
            // moment its data returns.
            self.info[w].wake_armed = true;
            return false;
        }
        if self.force_into_ready(w) {
            self.wakeups += 1;
            return true;
        }
        false
    }

    fn on_leading_done(&mut self, w: WarpSlot) {
        if let Some(info) = self.info.get_mut(w) {
            info.leading = false;
        }
    }

    fn pick(
        &mut self,
        _now: Cycle,
        mut can_issue: impl FnMut(WarpSlot) -> bool,
    ) -> Option<WarpSlot> {
        // Oldest-first within the (priority-ordered) ready queue.
        // Promotion happens only in event handlers, never here.
        self.ready.iter().copied().find(|&w| can_issue(w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all() -> impl FnMut(WarpSlot) -> bool {
        |_| true
    }

    #[test]
    fn baseline_fifo_order() {
        let mut s = TwoLevelScheduler::new(3, false, false);
        for w in 0..5 {
            s.on_launch(w, w == 0, 0);
        }
        assert_eq!(s.ready_order(), vec![0, 1, 2]);
        assert_eq!(s.pick(0, &mut all()), Some(0));
        // Demote 0 → 3 promoted.
        s.on_long_latency(0);
        assert_eq!(s.ready_order(), vec![1, 2, 3]);
    }

    #[test]
    fn demoted_warp_returns_after_ready_again() {
        let mut s = TwoLevelScheduler::new(2, false, false);
        for w in 0..3 {
            s.on_launch(w, false, 0);
        }
        s.on_long_latency(0); // ready: [1,2], pending: [0(blocked)]
        assert_eq!(s.ready_order(), vec![1, 2]);
        s.on_long_latency(1); // ready: [2], 0 still blocked
        assert_eq!(s.ready_order(), vec![2]);
        s.on_ready_again(0);
        assert_eq!(s.ready_order(), vec![2, 0]);
    }

    #[test]
    fn pas_orders_leading_warps_first_like_fig8b() {
        // 3 CTAs × 3 warps, ready queue of 4 — the Fig. 8b scenario.
        // Launch order: A0 A1 A2 B0 B1 B2 C0 C1 C2 (slots 0..9).
        let mut s = TwoLevelScheduler::new(4, true, false);
        for w in 0..9 {
            let leading = w % 3 == 0;
            s.on_launch(w, leading, (w % 3) as u8);
        }
        // Expect leading warps A0(0), B0(3), C0(6) at the front, then A1.
        assert_eq!(s.ready_order(), vec![0, 3, 6, 1]);
    }

    #[test]
    fn baseline_orders_cta_by_cta_like_fig8a() {
        let mut s = TwoLevelScheduler::new(4, false, false);
        for w in 0..9 {
            s.on_launch(w, w % 3 == 0, 0);
        }
        assert_eq!(s.ready_order(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn pas_promotes_leading_warps_first() {
        let mut s = TwoLevelScheduler::new(2, true, false);
        // Two trailing fill the queue, then a leading launches: displaces.
        s.on_launch(0, false, 0);
        s.on_launch(1, false, 0);
        s.on_launch(2, true, 0);
        assert!(s.ready_order().contains(&2));
        assert_eq!(s.ready_len(), 2);
    }

    #[test]
    fn prefetch_wakeup_moves_target_to_promotion_front() {
        let mut s = TwoLevelScheduler::new(2, true, false);
        for w in 0..4 {
            s.on_launch(w, false, 0);
        }
        assert_eq!(s.ready_order(), vec![0, 1]);
        // Warp 3 is pending and eligible; prefetch data arrives for it.
        // The gentle wake-up queues it ahead of warp 2 for the next
        // free ready slot rather than displacing a running warp.
        assert!(s.on_prefetch_fill(3));
        assert_eq!(s.wakeups, 1);
        s.on_finish(0);
        assert_eq!(
            s.ready_order(),
            vec![1, 3],
            "woken warp promoted before warp 2"
        );
    }

    #[test]
    fn prefetch_wakeup_takes_free_slot_immediately() {
        let mut s = TwoLevelScheduler::new(4, true, false);
        for w in 0..6 {
            s.on_launch(w, false, 0);
        }
        s.on_long_latency(0); // frees a slot, promotes 4
        s.on_long_latency(1); // frees a slot, promotes 5
        s.on_finish(4);
        s.on_finish(5);
        s.on_finish(2);
        // Queue now has free space; a wakeup inserts directly.
        assert!(s.ready_len() < 4);
        assert!(!s.on_prefetch_fill(0), "blocked warp only arms the flag");
        s.on_ready_again(0);
        assert!(
            s.ready_order().contains(&0),
            "armed wake fires on data return"
        );
        assert_eq!(s.wakeups, 1);
    }

    #[test]
    fn prefetch_wakeup_ignores_blocked_warps() {
        let mut s = TwoLevelScheduler::new(2, true, false);
        for w in 0..3 {
            s.on_launch(w, false, 0);
        }
        s.on_long_latency(0); // 0 blocked in pending
        assert!(!s.on_prefetch_fill(0));
    }

    #[test]
    fn without_wakeup_keeps_priority_but_ignores_fills() {
        let mut s = TwoLevelScheduler::without_wakeup(2);
        for w in 0..4 {
            s.on_launch(w, w == 3, 0);
        }
        // Leading warp still displaces into the ready queue…
        assert!(s.ready_order().contains(&3));
        // …but a prefetch fill promotes nothing.
        assert!(!s.on_prefetch_fill(1));
        assert_eq!(s.wakeups, 0);
    }

    #[test]
    fn prefetch_wakeup_is_noop_without_pas() {
        let mut s = TwoLevelScheduler::new(2, false, false);
        for w in 0..3 {
            s.on_launch(w, false, 0);
        }
        assert!(!s.on_prefetch_fill(2));
        assert_eq!(s.ready_order(), vec![0, 1]);
    }

    #[test]
    fn grouped_promotion_interleaves_groups() {
        let mut s = TwoLevelScheduler::new(1, false, true);
        // Queue cap 1; pending holds warps of groups 0,0,1.
        s.on_launch(0, false, 0); // ready
        s.on_launch(1, false, 0);
        s.on_launch(2, false, 0);
        s.on_launch(3, false, 1);
        s.on_long_latency(0);
        // Promotion should prefer group 1 (different from group 0 of the
        // initially promoted warp 0).
        assert_eq!(s.ready_order(), vec![3]);
    }

    #[test]
    fn finish_releases_slot_and_promotes() {
        let mut s = TwoLevelScheduler::new(1, false, false);
        s.on_launch(0, false, 0);
        s.on_launch(1, false, 0);
        assert_eq!(s.ready_order(), vec![0]);
        s.on_finish(0);
        assert_eq!(s.ready_order(), vec![1]);
        s.on_finish(1);
        assert_eq!(s.pick(0, &mut all()), None);
    }

    #[test]
    fn no_warp_lost_or_duplicated_under_churn() {
        // Conservation property exercised deterministically.
        let mut s = TwoLevelScheduler::new(3, true, false);
        for w in 0..8 {
            s.on_launch(w, w % 4 == 0, (w % 2) as u8);
        }
        for round in 0..50u32 {
            let w = (round as usize * 3) % 8;
            match round % 3 {
                0 => s.on_long_latency(w),
                1 => s.on_ready_again(w),
                _ => {
                    let _ = s.on_prefetch_fill(w);
                }
            }
            assert_eq!(s.promotable, s.promotable_recount(), "round {round}");
            // Invariant: each resident warp appears exactly once across
            // the two queues.
            let mut count = vec![0usize; 8];
            for x in s.ready_order() {
                count[x] += 1;
            }
            for x in s.pending_order() {
                count[x] += 1;
            }
            assert!(count.iter().all(|&c| c == 1), "round {round}: {count:?}");
        }
    }
}
