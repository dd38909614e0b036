//! The unified memory-path port layer: bounded ring buffers with a
//! single credit-based backpressure protocol.
//!
//! Every queue on the SM → L1 → interconnect → L2 → DRAM round trip is
//! built from three types layered on one another:
//!
//! * [`Ring`] — a power-of-two circular buffer that *reserves* the
//!   architectural bound on its occupancy (computed from MSHR and queue
//!   bounds at construction) but allocates on use: at most 16 slots up
//!   front, doubling up to the reserve as occupancy first reaches each
//!   size. Most rings of a run never come near their bound, so a machine
//!   starts with kilobytes of slots instead of megabytes, and a ring that
//!   has reached its high-water mark never allocates again. The rare
//!   overflow past the reserve (store streams, sustained DRAM saturation
//!   — paths with no architectural bound) doubles the buffer and counts
//!   it in [`Ring::grows`], so sizing is observable instead of guessed.
//! * [`Port`] — a `Ring` plus an explicit credit count. Producers ask
//!   [`Port::credits`] or call [`Port::try_push`]; a refused push is a
//!   *credit stall*, counted per port. One protocol replaces the five
//!   hand-rolled `len() < depth` idioms the memory path used to have.
//! * [`Link`] — a timed pipe (`Ring<(Cycle, T)>`) feeding an eject
//!   `Port`, replacing the interconnect's `Lane`: messages sent with a
//!   fixed latency mature into the bounded eject queue, and a full eject
//!   queue backs the pipe up without affecting other links.
//!
//! None of the occupancy/stall counters here feed [`crate::stats::Stats`];
//! they surface through [`crate::stats::LinkReport`]. A blocked link the
//! cycle loop leaves unstepped is charged its stall events in bulk
//! ([`Link::account_skipped`]), so the report reads the same under
//! naive and wake-driven stepping (see DESIGN.md §9d).

use crate::types::Cycle;

/// Counters describing one port (or one link) for host-side reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortSnapshot {
    /// Highest occupancy ever observed.
    pub high_water: usize,
    /// Pushes refused (or producer cycles stalled) for lack of credits.
    pub credit_stalls: u64,
    /// Times the backing ring grew past its reserved bound.
    pub grows: u64,
}

impl PortSnapshot {
    /// Fold another snapshot into this one (max of high waters, sum of
    /// events) — used to aggregate per-component ports into one report
    /// row.
    pub fn absorb(&mut self, other: PortSnapshot) {
        self.high_water = self.high_water.max(other.high_water);
        self.credit_stalls += other.credit_stalls;
        self.grows += other.grows;
    }
}

/// Slots a [`Ring`] allocates at construction when its reserve is larger.
const RING_INITIAL_SLOTS: usize = 16;

/// A circular buffer with power-of-two storage that reserves a bound and
/// allocates on use.
///
/// Indices are masked, never compared against a wrap bound, so push/pop
/// are branch-light. The storage starts at `min(reserve, 16)` slots and
/// doubles whenever a push finds it full: up to the reserve silently
/// (allocation on use), past it as a counted safety valve for queues
/// with no architectural bound. Once a ring has reached its high-water
/// mark it never allocates again.
#[derive(Debug)]
pub struct Ring<T> {
    buf: Box<[Option<T>]>,
    head: usize,
    len: usize,
    /// Architectural bound, a power of two; growth up to it is not
    /// counted.
    reserve: usize,
    high_water: usize,
    grows: u64,
}

impl<T> Ring<T> {
    /// Ring reserving room for at least `cap` elements: pushing up to
    /// `cap` (rounded up to a power of two) never counts a grow.
    pub fn with_capacity(cap: usize) -> Self {
        let reserve = cap.max(2).next_power_of_two();
        Ring {
            buf: Self::slots(reserve.min(RING_INITIAL_SLOTS)),
            head: 0,
            len: 0,
            reserve,
            high_water: 0,
            grows: 0,
        }
    }

    fn slots(n: usize) -> Box<[Option<T>]> {
        (0..n).map(|_| None).collect()
    }

    /// Elements currently queued.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the ring holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slots allocated so far (a power of two).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Highest occupancy ever observed.
    #[inline]
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Times the ring grew past its reserved bound.
    #[inline]
    pub fn grows(&self) -> u64 {
        self.grows
    }

    #[inline]
    fn mask(&self) -> usize {
        self.buf.len() - 1
    }

    /// Slot at a masked physical index, skipping the bounds check.
    ///
    /// Capacity is a power of two and every caller masks with
    /// `capacity - 1`, so the index is in bounds by construction; the
    /// checked form costs a branch per queue operation on the hottest
    /// paths in the simulator (measured ~5–10% of whole-run time on
    /// queue-heavy workloads). The CI miri job interprets the port unit
    /// tests to keep this honest.
    #[inline]
    fn slot_mut(&mut self, idx: usize) -> &mut Option<T> {
        debug_assert!(idx < self.buf.len());
        // SAFETY: idx was masked by `capacity - 1` (power of two).
        unsafe { self.buf.get_unchecked_mut(idx) }
    }

    /// Shared-reference form of [`Self::slot_mut`].
    #[inline]
    fn slot(&self, idx: usize) -> &Option<T> {
        debug_assert!(idx < self.buf.len());
        // SAFETY: idx was masked by `capacity - 1` (power of two).
        unsafe { self.buf.get_unchecked(idx) }
    }

    /// Append to the tail, doubling the buffer if full (counted once
    /// the buffer is at or past the reserve).
    pub fn push_back(&mut self, v: T) {
        if self.len == self.buf.len() {
            self.grow();
        }
        let idx = (self.head + self.len) & self.mask();
        let slot = self.slot_mut(idx);
        debug_assert!(slot.is_none());
        *slot = Some(v);
        self.len += 1;
        if self.len > self.high_water {
            self.high_water = self.len;
        }
    }

    /// Remove and return the head element.
    pub fn pop_front(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let head = self.head;
        let v = self.slot_mut(head).take();
        debug_assert!(v.is_some());
        self.head = (self.head + 1) & self.mask();
        self.len -= 1;
        v
    }

    /// The head element, if any.
    #[inline]
    pub fn front(&self) -> Option<&T> {
        self.get(0)
    }

    /// Mutable access to the head element.
    #[inline]
    pub fn front_mut(&mut self) -> Option<&mut T> {
        if self.len == 0 {
            return None;
        }
        let head = self.head;
        self.slot_mut(head).as_mut()
    }

    /// The `i`-th element from the head (0 = head).
    #[inline]
    pub fn get(&self, i: usize) -> Option<&T> {
        if i >= self.len {
            return None;
        }
        self.slot((self.head + i) & self.mask()).as_ref()
    }

    /// Remove the `i`-th element from the head, preserving the order of
    /// the rest (elements after `i` shift forward one slot). Order
    /// preservation matters: FR-FCFS tie-breaks on queue position, so a
    /// swap-remove would change scheduling decisions.
    pub fn remove(&mut self, i: usize) -> T {
        assert!(i < self.len, "Ring::remove out of bounds");
        let mask = self.mask();
        let v = self.slot_mut((self.head + i) & mask).take().expect("occupied");
        for j in i..self.len - 1 {
            let next = self.slot_mut((self.head + j + 1) & mask).take();
            *self.slot_mut((self.head + j) & mask) = next;
        }
        self.len -= 1;
        v
    }

    /// Drop every element.
    pub fn clear(&mut self) {
        while self.pop_front().is_some() {}
    }

    /// Iterate head → tail.
    pub fn iter(&self) -> RingIter<'_, T> {
        RingIter { ring: self, i: 0 }
    }

    #[cold]
    fn grow(&mut self) {
        if self.buf.len() >= self.reserve {
            self.grows += 1;
        }
        let mut bigger = Self::slots(self.buf.len() * 2);
        for (i, slot) in bigger.iter_mut().take(self.len).enumerate() {
            *slot = self.buf[(self.head + i) & (self.buf.len() - 1)].take();
        }
        self.buf = bigger;
        self.head = 0;
    }
}

/// Head-to-tail iterator over a [`Ring`].
pub struct RingIter<'a, T> {
    ring: &'a Ring<T>,
    i: usize,
}

impl<'a, T> Iterator for RingIter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        let v = self.ring.get(self.i);
        self.i += 1;
        v
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.ring.len().saturating_sub(self.i);
        (left, Some(left))
    }
}

impl<T> ExactSizeIterator for RingIter<'_, T> {}

/// A bounded queue with explicit credit-based backpressure.
///
/// `capacity` is the credit limit — the architectural depth of the
/// queue, which its ring reserves. [`Port::try_push`] consumes a credit
/// or fails (counted); [`Port::push`] is for queues whose producers are
/// bounded elsewhere (it rides the ring's growth valve past the credit
/// limit rather than dropping, so a mis-estimated bound shows up in the
/// report, not as a deadlock or a silent drop).
#[derive(Debug)]
pub struct Port<T> {
    ring: Ring<T>,
    capacity: usize,
    credit_stalls: u64,
}

impl<T> Port<T> {
    /// Port with `capacity` credits, its ring reserved to hold all of
    /// them.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a port needs at least one credit");
        Port {
            ring: Ring::with_capacity(capacity),
            capacity,
            credit_stalls: 0,
        }
    }

    /// Remaining credits (free slots under the architectural depth).
    #[inline]
    pub fn credits(&self) -> usize {
        self.capacity.saturating_sub(self.ring.len())
    }

    /// The credit limit this port was constructed with.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Push if a credit is available; a refusal hands the value back and
    /// counts a credit stall.
    pub fn try_push(&mut self, v: T) -> Result<(), T> {
        if self.ring.len() >= self.capacity {
            self.credit_stalls += 1;
            return Err(v);
        }
        self.ring.push_back(v);
        Ok(())
    }

    /// Unconditional push (growth valve past the credit limit).
    #[inline]
    pub fn push(&mut self, v: T) {
        self.ring.push_back(v);
    }

    /// Record a producer cycle stalled on zero credits without
    /// attempting a push (for producers that check [`Self::credits`]
    /// before constructing the value).
    #[inline]
    pub fn note_stall(&mut self) {
        self.credit_stalls += 1;
    }

    /// Remove and return the head element.
    #[inline]
    pub fn pop(&mut self) -> Option<T> {
        self.ring.pop_front()
    }

    /// The head element, if any.
    #[inline]
    pub fn peek(&self) -> Option<&T> {
        self.ring.front()
    }

    /// Mutable access to the head element.
    #[inline]
    pub fn peek_mut(&mut self) -> Option<&mut T> {
        self.ring.front_mut()
    }

    /// Elements currently queued.
    #[inline]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the port holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The `i`-th element from the head.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&T> {
        self.ring.get(i)
    }

    /// Remove the `i`-th element, preserving order.
    #[inline]
    pub fn remove(&mut self, i: usize) -> T {
        self.ring.remove(i)
    }

    /// Iterate head → tail.
    #[inline]
    pub fn iter(&self) -> RingIter<'_, T> {
        self.ring.iter()
    }

    /// Drop every element.
    #[inline]
    pub fn clear(&mut self) {
        self.ring.clear()
    }

    /// Drain head → tail until empty.
    pub fn drain(&mut self) -> PortDrain<'_, T> {
        PortDrain { port: self }
    }

    /// Observability counters for this port.
    pub fn snapshot(&self) -> PortSnapshot {
        PortSnapshot {
            high_water: self.ring.high_water(),
            credit_stalls: self.credit_stalls,
            grows: self.ring.grows(),
        }
    }
}

/// Draining iterator over a [`Port`] (head → tail until empty).
pub struct PortDrain<'a, T> {
    port: &'a mut Port<T>,
}

impl<T> Iterator for PortDrain<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.port.pop()
    }
}

/// One crossbar output: a timed pipe of in-flight messages feeding a
/// bounded eject [`Port`]. Links are fully independent: a full eject
/// queue backs up only its own pipe.
#[derive(Debug)]
pub struct Link<T> {
    /// In-flight messages (arrival cycle, payload); arrival cycles are
    /// monotone because senders inject with a constant latency.
    pipe: Ring<(Cycle, T)>,
    /// Arrived but not yet ejected, bounded by the eject credit count.
    eject: Port<T>,
    /// Cumulative cycles this link's pipe head waited for a full eject
    /// queue (congestion diagnostic, summed per network).
    pub stall_events: u64,
    /// This link's [`Link::step`] is a provable no-op before this cycle.
    /// Exact: recomputed from the surviving head after every scan and
    /// lowered by every send; a blocked head (arrived, eject queue full)
    /// keeps the bound at or below `now`, forcing rescans while its
    /// stall events accrue.
    wake_at: Cycle,
}

impl<T> Link<T> {
    /// Link with `eject_depth` eject credits and a pipe reserved for
    /// `pipe_capacity` in-flight messages.
    pub fn new(eject_depth: usize, pipe_capacity: usize) -> Self {
        Link {
            pipe: Ring::with_capacity(pipe_capacity),
            eject: Port::new(eject_depth),
            stall_events: 0,
            wake_at: 0,
        }
    }

    /// Move this link's arrived messages into its eject queue (respecting
    /// eject credits). Call once per cycle before popping.
    pub fn step(&mut self, now: Cycle) {
        if now < self.wake_at {
            return;
        }
        while let Some(&(t, _)) = self.pipe.front() {
            if t > now {
                break;
            }
            if self.eject.credits() == 0 {
                // The hot output's queue is full: its own pipe backs
                // up, other outputs are unaffected.
                self.stall_events += 1;
                self.eject.note_stall();
                break;
            }
            let (_, msg) = self.pipe.pop_front().expect("checked non-empty");
            self.eject.push(msg);
        }
        self.wake_at = match self.pipe.front() {
            Some(&(t, _)) => t,
            None => Cycle::MAX,
        };
    }

    /// Whether this link has a deliverable message.
    #[inline]
    pub fn has_pending(&self) -> bool {
        !self.eject.is_empty()
    }

    /// Peek at the next deliverable message without consuming it.
    #[inline]
    pub fn peek(&self) -> Option<&T> {
        self.eject.peek()
    }

    /// Take a single deliverable message, if any.
    #[inline]
    pub fn pop_one(&mut self) -> Option<T> {
        self.eject.pop()
    }

    /// The cycle before which [`Link::step`] is a no-op: the pipe head's
    /// arrival (`Cycle::MAX` when the pipe is empty), at or below the
    /// current cycle while an arrived head is blocked.
    #[inline]
    pub fn wake_at(&self) -> Cycle {
        self.wake_at
    }

    /// Whether the eject queue has a free credit for the next arrival.
    #[inline]
    pub fn has_room(&self) -> bool {
        self.eject.credits() > 0
    }

    /// Charge the stall events naive stepping would have recorded over
    /// the unstepped cycles `from..to`, during which neither this link
    /// nor its consumer acted: one per cycle the pipe head sits
    /// arrived-but-blocked on a full eject queue. With a free credit an
    /// arrival would have moved instead (so a link with room is never
    /// left unstepped past an arrival), and a head arriving at `t`
    /// mid-window blocks for `to - max(t, from)` cycles.
    pub fn account_skipped(&mut self, from: Cycle, to: Cycle) {
        if self.eject.credits() > 0 {
            return;
        }
        if let Some(&(t, _)) = self.pipe.front() {
            let stalls = to.saturating_sub(t.max(from));
            self.stall_events += stalls;
            self.eject.credit_stalls += stalls;
        }
    }

    /// Messages anywhere in this link (pipe + eject queue).
    #[inline]
    pub fn in_flight(&self) -> usize {
        self.pipe.len() + self.eject.len()
    }

    /// Inject a message that arrives at cycle `at`. Arrival cycles must
    /// be monotone per link (constant-latency senders guarantee this).
    pub fn send(&mut self, at: Cycle, msg: T) {
        debug_assert!(self.pipe.iter().last().is_none_or(|&(t, _)| t <= at));
        self.pipe.push_back((at, msg));
        if at < self.wake_at {
            self.wake_at = at;
        }
    }

    /// Observability counters: pipe and eject occupancy folded into one
    /// snapshot (high water = max of the two sides).
    pub fn snapshot(&self) -> PortSnapshot {
        let mut s = self.eject.snapshot();
        s.absorb(PortSnapshot {
            high_water: self.pipe.high_water(),
            credit_stalls: 0,
            grows: self.pipe.grows(),
        });
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_push_pop_fifo_across_wrap() {
        let mut r: Ring<u32> = Ring::with_capacity(4);
        for round in 0..10u32 {
            for i in 0..3 {
                r.push_back(round * 10 + i);
            }
            for i in 0..3 {
                assert_eq!(r.pop_front(), Some(round * 10 + i));
            }
        }
        assert!(r.is_empty());
        assert_eq!(r.grows(), 0, "never exceeded the reserve");
        assert_eq!(r.high_water(), 3);
    }

    #[test]
    fn ring_grows_when_overfull_and_counts_it() {
        let mut r: Ring<u32> = Ring::with_capacity(2);
        for i in 0..10 {
            r.push_back(i);
        }
        assert_eq!(r.grows(), 3, "2 → 4 → 8 → 16");
        assert!(r.capacity() >= 10);
        for i in 0..10 {
            assert_eq!(r.pop_front(), Some(i));
        }
    }

    #[test]
    fn ring_allocates_on_use_and_counts_only_growth_past_its_reserve() {
        for n in [2, 16, 64, 1024] {
            let mut r: Ring<usize> = Ring::with_capacity(n);
            assert!(
                r.capacity() <= RING_INITIAL_SLOTS,
                "reserve {n}: allocated up front"
            );
            for i in 0..n {
                r.push_back(i);
            }
            assert_eq!(r.grows(), 0, "reserve {n}: grew within the bound");
            assert_eq!(r.capacity(), n);
            r.push_back(n);
            assert_eq!(r.grows(), 1, "reserve {n}: one element past the bound");
            assert_eq!(
                r.iter().copied().collect::<Vec<_>>(),
                (0..=n).collect::<Vec<_>>()
            );
        }
        // A reserve that is not a power of two rounds up.
        let mut r: Ring<u32> = Ring::with_capacity(100);
        for i in 0..128 {
            r.push_back(i);
        }
        assert_eq!(r.grows(), 0);
    }

    #[test]
    fn ring_growth_within_the_reserve_keeps_fifo_order_across_the_wrap() {
        let mut r: Ring<u32> = Ring::with_capacity(256);
        let mut next_in = 0;
        let mut next_out = 0;
        // Lap the initial storage before each growth step.
        for target in [10, 20, 40, 100, 200] {
            for _ in 0..7 {
                r.push_back(next_in);
                next_in += 1;
                assert_eq!(r.pop_front(), Some(next_out));
                next_out += 1;
            }
            while r.len() < target {
                r.push_back(next_in);
                next_in += 1;
            }
        }
        while let Some(v) = r.pop_front() {
            assert_eq!(v, next_out);
            next_out += 1;
        }
        assert_eq!(next_out, next_in);
        assert_eq!(r.grows(), 0);
        assert_eq!(r.high_water(), 200);
    }

    #[test]
    fn ring_ordered_remove_shifts_later_elements() {
        let mut r: Ring<u32> = Ring::with_capacity(8);
        // Offset the head so removal crosses the wrap point.
        for _ in 0..6 {
            r.push_back(0);
            r.pop_front();
        }
        for i in 0..6 {
            r.push_back(i);
        }
        assert_eq!(r.remove(2), 2);
        assert_eq!(r.remove(0), 0);
        let left: Vec<u32> = r.iter().copied().collect();
        assert_eq!(left, vec![1, 3, 4, 5]);
    }

    #[test]
    fn port_credits_and_try_push() {
        let mut p: Port<u32> = Port::new(2);
        assert_eq!(p.credits(), 2);
        assert_eq!(p.try_push(1), Ok(()));
        assert_eq!(p.try_push(2), Ok(()));
        assert_eq!(p.credits(), 0);
        assert_eq!(p.try_push(3), Err(3));
        assert_eq!(p.snapshot().credit_stalls, 1);
        assert_eq!(p.pop(), Some(1));
        assert_eq!(p.credits(), 1);
        assert_eq!(p.try_push(3), Ok(()));
        assert_eq!(p.drain().collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(p.snapshot().high_water, 2);
        assert_eq!(p.snapshot().grows, 0);
    }

    #[test]
    fn port_push_rides_the_growth_valve() {
        let mut p: Port<u32> = Port::new(2);
        for i in 0..5 {
            p.push(i);
        }
        assert_eq!(p.credits(), 0);
        assert!(p.snapshot().grows > 0);
        assert_eq!(p.drain().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn link_matches_lane_semantics() {
        let mut l: Link<u32> = Link::new(1, 4);
        l.send(5, 1);
        l.send(5, 2);
        l.step(4);
        assert!(!l.has_pending(), "nothing arrives early");
        assert_eq!(l.wake_at(), 5);
        l.step(5);
        assert!(l.has_pending());
        assert!(!l.has_room(), "1-deep eject, second arrived");
        assert!(l.wake_at() <= 5, "a blocked head keeps the link due");
        assert!(l.stall_events > 0);
        assert_eq!(l.pop_one(), Some(1));
        assert!(l.has_room(), "freed credit unblocks the head");
        l.step(5);
        assert_eq!(l.pop_one(), Some(2));
        assert_eq!(l.in_flight(), 0);
        assert_eq!(l.wake_at(), Cycle::MAX);
    }

    #[test]
    fn account_skipped_reproduces_naive_per_cycle_accounting() {
        // Naive reference: step every cycle, count stall_events.
        let make = || {
            let mut l: Link<u32> = Link::new(1, 4);
            l.send(2, 10); // will eject at t=2, consuming the only credit
            l.send(5, 11); // arrives mid-window, blocks from t=5
            l
        };
        let mut naive = make();
        for now in 0..=12 {
            naive.step(now);
        }
        let mut skipped = make();
        skipped.step(0);
        skipped.step(1);
        skipped.step(2); // head ejects, credit drops to 0
        skipped.account_skipped(3, 13); // window covers 3..=12
        assert_eq!(skipped.stall_events, naive.stall_events);
        assert_eq!(skipped.stall_events, 8, "t=5 head blocked for cycles 5..=12");
        assert_eq!(skipped.snapshot().credit_stalls, naive.snapshot().credit_stalls);
        // No credits but an empty pipe: nothing to stall.
        let mut idle: Link<u32> = Link::new(1, 4);
        idle.send(0, 1);
        idle.step(0);
        idle.account_skipped(1, 100);
        assert_eq!(idle.stall_events, 0);
    }

    #[test]
    fn snapshot_absorb_maxes_and_sums() {
        let mut a = PortSnapshot {
            high_water: 3,
            credit_stalls: 2,
            grows: 1,
        };
        a.absorb(PortSnapshot {
            high_water: 5,
            credit_stalls: 4,
            grows: 0,
        });
        assert_eq!(a.high_water, 5);
        assert_eq!(a.credit_stalls, 6);
        assert_eq!(a.grows, 1);
    }
}
