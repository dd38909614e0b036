//! Miss Status Holding Registers.
//!
//! MSHRs bound the number of distinct outstanding line misses per cache.
//! When they fill up — which is precisely the bursty-miss condition the
//! paper identifies — further memory instructions replay and the pipeline
//! backs up. Demand misses to a line already in flight merge into the
//! existing entry; prefetch-originated entries remember the warps bound to
//! them so fills can trigger the eager warp wake-up of §V-A.

use crate::linemap::LineMap;
use crate::types::{Addr, Cycle, Pc, WarpSlot};

/// A demand waiter registered on an in-flight line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Waiter {
    /// Warp whose outstanding-load counter must drop when the fill
    /// arrives.
    pub warp: WarpSlot,
}

/// A prefetch target bound to an in-flight line (used for wake-up and
/// distance bookkeeping).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchTag {
    /// Warp the prefetched data is destined for (`None` for target-less
    /// prefetchers such as next-line).
    pub target_warp: Option<WarpSlot>,
    /// Load PC that generated the prefetch.
    pub pc: Pc,
    /// Cycle the prefetch was issued (distance measurement).
    pub issue_cycle: Cycle,
}

/// One in-flight line.
#[derive(Debug, Clone)]
pub struct MshrEntry {
    /// Line base address.
    pub line: Addr,
    /// Whether the entry was created by a prefetch (no demand yet when
    /// allocated).
    pub prefetch_origin: bool,
    /// Demand waiters merged into this entry.
    pub waiters: Vec<Waiter>,
    /// Prefetch metadata if a prefetch created or joined the entry.
    pub prefetch: Option<PrefetchTag>,
    /// Set when a demand merged into a prefetch-origin entry
    /// (a *late* prefetch: address right, timing short).
    pub demand_joined: bool,
}

/// Outcome of attempting to track a miss in the MSHR file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// New entry allocated; caller must send the request downstream.
    Allocated,
    /// Merged into an existing in-flight entry; no new request.
    Merged {
        /// The existing entry was created by a prefetch and this is the
        /// first demand to join it.
        hit_inflight_prefetch: bool,
    },
    /// No entry or merge slot available; the access must replay.
    ReservationFail,
}

/// Fixed-capacity MSHR file.
#[derive(Debug)]
pub struct MshrFile {
    entries: LineMap<MshrEntry>,
    capacity: usize,
    merge_capacity: usize,
    /// Recycled waiter lists, refilled via [`Self::recycle_waiters`] so
    /// the steady-state allocate/complete cycle performs no heap
    /// traffic.
    waiter_pool: Vec<Vec<Waiter>>,
}

impl MshrFile {
    /// `capacity` distinct lines, each merging up to `merge_capacity`
    /// requests (the first allocation counts as one).
    pub fn new(capacity: usize, merge_capacity: usize) -> Self {
        assert!(capacity > 0 && merge_capacity > 0);
        MshrFile {
            entries: LineMap::with_capacity(capacity),
            capacity,
            merge_capacity,
            waiter_pool: Vec::new(),
        }
    }

    /// Return a drained waiter list for reuse by a later allocation.
    #[inline]
    pub fn recycle_waiters(&mut self, waiters: Vec<Waiter>) {
        debug_assert!(waiters.is_empty(), "recycled list must be drained");
        self.waiter_pool.push(waiters);
    }

    /// A pooled (or fresh) waiter list.
    #[inline]
    fn take_waiters(&mut self) -> Vec<Waiter> {
        self.waiter_pool.pop().unwrap_or_default()
    }

    /// Entries currently in flight.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is in flight.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Free entry slots.
    #[inline]
    pub fn free(&self) -> usize {
        self.capacity - self.entries.len()
    }

    /// Whether `line` is already in flight.
    #[inline]
    pub fn contains(&self, line: Addr) -> bool {
        self.entries.contains(line)
    }

    /// Track a demand miss for `line`, registering `waiter`.
    pub fn demand_miss(&mut self, line: Addr, waiter: Waiter) -> MshrOutcome {
        if let Some(e) = self.entries.get_mut(line) {
            if e.waiters.len() >= self.merge_capacity {
                return MshrOutcome::ReservationFail;
            }
            let first_demand_on_prefetch = e.prefetch_origin && !e.demand_joined;
            e.waiters.push(waiter);
            e.demand_joined = true;
            return MshrOutcome::Merged {
                hit_inflight_prefetch: first_demand_on_prefetch,
            };
        }
        if self.entries.len() >= self.capacity {
            return MshrOutcome::ReservationFail;
        }
        let mut waiters = self.take_waiters();
        waiters.push(waiter);
        self.entries.insert(
            line,
            MshrEntry {
                line,
                prefetch_origin: false,
                waiters,
                prefetch: None,
                demand_joined: true,
            },
        );
        MshrOutcome::Allocated
    }

    /// Track a prefetch miss for `line`. `reserve` entry slots are kept
    /// free for demand misses; a prefetch that cannot allocate is simply
    /// dropped by the caller (prefetches are best-effort).
    pub fn prefetch_miss(&mut self, line: Addr, tag: PrefetchTag, reserve: usize) -> MshrOutcome {
        if let Some(e) = self.entries.get_mut(line) {
            // A prefetch to a line already in flight adds nothing.
            if e.prefetch.is_none() {
                e.prefetch = Some(tag);
            }
            return MshrOutcome::Merged {
                hit_inflight_prefetch: false,
            };
        }
        if self.free() <= reserve {
            return MshrOutcome::ReservationFail;
        }
        let waiters = self.take_waiters();
        self.entries.insert(
            line,
            MshrEntry {
                line,
                prefetch_origin: true,
                waiters,
                prefetch: Some(tag),
                demand_joined: false,
            },
        );
        MshrOutcome::Allocated
    }

    /// Remove and return the entry for a filled line. Panics if the fill
    /// does not match an in-flight entry (protocol error).
    pub fn complete(&mut self, line: Addr) -> MshrEntry {
        self.entries
            .remove(line)
            .expect("fill for line with no MSHR entry")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(i: usize) -> Waiter {
        Waiter { warp: i }
    }

    fn tag() -> PrefetchTag {
        PrefetchTag {
            target_warp: Some(3),
            pc: 8,
            issue_cycle: 100,
        }
    }

    #[test]
    fn allocate_then_merge() {
        let mut m = MshrFile::new(2, 4);
        assert_eq!(m.demand_miss(0x100, w(0)), MshrOutcome::Allocated);
        assert_eq!(
            m.demand_miss(0x100, w(1)),
            MshrOutcome::Merged {
                hit_inflight_prefetch: false
            }
        );
        assert_eq!(m.len(), 1);
        let e = m.complete(0x100);
        assert_eq!(e.waiters.len(), 2);
        assert!(m.is_empty());
    }

    #[test]
    fn capacity_exhaustion_fails() {
        let mut m = MshrFile::new(2, 4);
        assert_eq!(m.demand_miss(0x100, w(0)), MshrOutcome::Allocated);
        assert_eq!(m.demand_miss(0x200, w(0)), MshrOutcome::Allocated);
        assert_eq!(m.demand_miss(0x300, w(0)), MshrOutcome::ReservationFail);
    }

    #[test]
    fn merge_capacity_exhaustion_fails() {
        let mut m = MshrFile::new(2, 2);
        assert_eq!(m.demand_miss(0x100, w(0)), MshrOutcome::Allocated);
        assert_eq!(
            m.demand_miss(0x100, w(1)),
            MshrOutcome::Merged {
                hit_inflight_prefetch: false
            }
        );
        assert_eq!(m.demand_miss(0x100, w(2)), MshrOutcome::ReservationFail);
    }

    #[test]
    fn demand_joining_prefetch_is_flagged_once() {
        let mut m = MshrFile::new(4, 4);
        assert_eq!(m.prefetch_miss(0x100, tag(), 0), MshrOutcome::Allocated);
        assert_eq!(
            m.demand_miss(0x100, w(0)),
            MshrOutcome::Merged {
                hit_inflight_prefetch: true
            }
        );
        assert_eq!(
            m.demand_miss(0x100, w(1)),
            MshrOutcome::Merged {
                hit_inflight_prefetch: false
            }
        );
        let e = m.complete(0x100);
        assert!(e.prefetch_origin);
        assert!(e.demand_joined);
        assert_eq!(e.prefetch.unwrap().target_warp, Some(3));
    }

    #[test]
    fn prefetch_respects_reserve() {
        let mut m = MshrFile::new(3, 4);
        assert_eq!(m.prefetch_miss(0x100, tag(), 2), MshrOutcome::Allocated);
        // free() == 2 now, equal to the reserve → refuse.
        assert_eq!(
            m.prefetch_miss(0x200, tag(), 2),
            MshrOutcome::ReservationFail
        );
        // Demand may still allocate.
        assert_eq!(m.demand_miss(0x200, w(0)), MshrOutcome::Allocated);
    }

    #[test]
    fn prefetch_merge_into_demand_entry_keeps_origin() {
        let mut m = MshrFile::new(4, 4);
        assert_eq!(m.demand_miss(0x100, w(0)), MshrOutcome::Allocated);
        assert_eq!(
            m.prefetch_miss(0x100, tag(), 0),
            MshrOutcome::Merged {
                hit_inflight_prefetch: false
            }
        );
        let e = m.complete(0x100);
        assert!(!e.prefetch_origin, "origin stays demand");
    }

    #[test]
    #[should_panic(expected = "no MSHR entry")]
    fn completing_unknown_line_panics() {
        let mut m = MshrFile::new(2, 2);
        let _ = m.complete(0xdead);
    }
}
