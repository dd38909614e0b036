//! The PerCTA table (§V-B).
//!
//! One table per hardware CTA slot. Each entry stores, for one targeted
//! load PC: the leading warp id (the first warp of this CTA to execute
//! that PC) and the base-address vector captured from that warp — up to
//! four coalesced line addresses, since loads producing more than four
//! accesses are not targeted. Entries are replaced least-recently-updated.
//!
//! Hardware layout (Table I): PC (4 B) + leading warp id (1 B) +
//! 4×4 B base-address vector = 21 B per entry, four entries per CTA.

use caps_gpu_sim::linemap::LineMap;
use caps_gpu_sim::types::{Addr, CtaCoord, Pc};

/// Entries per PerCTA table (paper default).
pub const PER_CTA_ENTRIES: usize = 4;

/// Maximum coalesced accesses a targeted load may produce (§V-B).
pub const MAX_BASE_ADDRS: usize = 4;

/// Bytes of one PerCTA entry as specified in Table I.
pub const PER_CTA_ENTRY_BYTES: usize = 4 + 1 + MAX_BASE_ADDRS * 4;

/// A base-address vector of at most [`MAX_BASE_ADDRS`] lines, stored
/// inline like the entry's fixed hardware field, so registering or
/// copying one allocates nothing. Dereferences to the captured lines.
#[derive(Debug, Clone, Copy)]
pub struct BaseAddrs {
    addrs: [Addr; MAX_BASE_ADDRS],
    len: u8,
}

impl BaseAddrs {
    /// Capture `lines`.
    ///
    /// # Panics
    /// If `lines` holds more than [`MAX_BASE_ADDRS`] addresses.
    pub fn new(lines: &[Addr]) -> Self {
        assert!(
            lines.len() <= MAX_BASE_ADDRS,
            "a base-address vector holds at most {MAX_BASE_ADDRS} lines"
        );
        let mut addrs = [0; MAX_BASE_ADDRS];
        addrs[..lines.len()].copy_from_slice(lines);
        BaseAddrs {
            addrs,
            len: lines.len() as u8,
        }
    }
}

impl std::ops::Deref for BaseAddrs {
    type Target = [Addr];

    fn deref(&self) -> &[Addr] {
        &self.addrs[..self.len as usize]
    }
}

/// One PerCTA entry: the base addresses a leading warp computed for one
/// load PC.
#[derive(Debug, Clone)]
pub struct PerCtaEntry {
    /// Load PC this entry tracks.
    pub pc: Pc,
    /// Warp (index within the CTA) that registered the bases.
    pub leading_warp: u32,
    /// Base line addresses captured from the leading warp (≤ 4).
    pub bases: BaseAddrs,
    /// Bitmask of warps (by index within the CTA) whose demand fetch for
    /// this PC was already observed — prefetching for them is pointless.
    pub demand_seen: u64,
    /// Loop iteration of the leading warp when the bases were captured.
    /// Address verification only compares demands from the *same*
    /// iteration — comparing across iterations of a loop load would
    /// misattribute the loop stride as a misprediction.
    pub iter: u32,
    lru: u64,
}

/// The PerCTA table of one CTA slot.
///
/// `entries` remains the source of truth for iteration and replacement
/// order (both architecturally visible); `index` is a flat PC → position
/// map layered on top so the per-demand `lookup`/`probe` on the issue
/// path costs one hash probe instead of a scan. Its generation-based
/// O(1) `clear` is what makes the per-CTA-launch `reset` free.
#[derive(Debug, Default)]
pub struct PerCtaTable {
    entries: Vec<PerCtaEntry>,
    index: LineMap<usize>,
    capacity: usize,
    replace_when_full: bool,
    clock: u64,
    /// The CTA currently owning this slot (None when free).
    pub cta: Option<CtaCoord>,
}

impl PerCtaTable {
    /// Empty table with the paper's default capacity and
    /// least-recently-updated replacement (§V-B).
    pub fn new() -> Self {
        Self::with_capacity(PER_CTA_ENTRIES)
    }

    /// Empty table with `capacity` entries and LRU replacement.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_policy(capacity, true)
    }

    /// Explicit replacement policy: `replace_when_full = false` pins the
    /// first `capacity` load PCs of each CTA instead of churning — an
    /// implementation choice for kernels with more static loads than
    /// entries (see DESIGN.md).
    pub fn with_policy(capacity: usize, replace_when_full: bool) -> Self {
        assert!(capacity > 0);
        PerCtaTable {
            entries: Vec::with_capacity(capacity),
            index: LineMap::with_capacity(capacity),
            capacity,
            replace_when_full,
            clock: 0,
            cta: None,
        }
    }

    /// Re-initialize for a newly launched CTA.
    pub fn reset(&mut self, cta: CtaCoord) {
        self.entries.clear();
        self.index.clear();
        self.clock = 0;
        self.cta = Some(cta);
    }

    /// Drop all state (CTA completed).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.index.clear();
        self.cta = None;
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no entry is live.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Find the entry for `pc`.
    pub fn lookup(&mut self, pc: Pc) -> Option<&mut PerCtaEntry> {
        let i = *self.index.get(pc as u64)?;
        Some(&mut self.entries[i])
    }

    /// Immutable probe (no LRU effect).
    pub fn probe(&self, pc: Pc) -> Option<&PerCtaEntry> {
        let i = *self.index.get(pc as u64)?;
        Some(&self.entries[i])
    }

    /// Register the leading warp's bases for `pc`. When the table is
    /// full, either evicts the least-recently-updated entry (§V-B) or —
    /// with pinning — drops the insertion. Returns the fresh entry, or
    /// `None` when pinned-full.
    pub fn insert(
        &mut self,
        pc: Pc,
        leading_warp: u32,
        bases: &[Addr],
    ) -> Option<&mut PerCtaEntry> {
        self.insert_at_iter(pc, leading_warp, bases, 0)
    }

    /// [`Self::insert`] with the leading warp's loop iteration recorded.
    pub fn insert_at_iter(
        &mut self,
        pc: Pc,
        leading_warp: u32,
        bases: &[Addr],
        iter: u32,
    ) -> Option<&mut PerCtaEntry> {
        self.insert_full(pc, leading_warp, bases, iter, u32::MAX)
    }

    /// Full insertion: when the table is full, an *exhausted* entry — one
    /// whose demand mask covers every warp of the CTA, so it can never
    /// generate another prefetch — is evicted first; otherwise the policy
    /// flag decides between least-recently-updated eviction (§V-B) and
    /// pinning.
    pub fn insert_full(
        &mut self,
        pc: Pc,
        leading_warp: u32,
        bases: &[Addr],
        iter: u32,
        warps_per_cta: u32,
    ) -> Option<&mut PerCtaEntry> {
        debug_assert!(self.lookup(pc).is_none(), "insert over live entry");
        self.clock += 1;
        let clock = self.clock;
        if self.entries.len() == self.capacity {
            let exhausted = self
                .entries
                .iter()
                .position(|e| e.all_demands_seen(warps_per_cta));
            if let Some(victim) = exhausted {
                self.remove_at(victim);
            } else if !self.replace_when_full {
                return None;
            } else {
                // Least-recently-updated replacement (§V-B).
                let victim = self
                    .entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.lru)
                    .map(|(i, _)| i)
                    .expect("full table has a victim");
                self.remove_at(victim);
            }
        }
        self.index.insert(pc as u64, self.entries.len());
        self.entries.push(PerCtaEntry {
            pc,
            leading_warp,
            bases: BaseAddrs::new(bases),
            demand_seen: 1u64 << leading_warp.min(63),
            iter,
            lru: clock,
        });
        self.entries.last_mut()
    }

    /// `swap_remove` the entry at `i`, fixing the index of the entry
    /// moved into its place.
    fn remove_at(&mut self, i: usize) {
        let removed = self.entries.swap_remove(i);
        self.index.remove(removed.pc as u64);
        if i < self.entries.len() {
            self.index.insert(self.entries[i].pc as u64, i);
        }
    }

    /// Refresh an existing entry's bases (leading warp re-executed the
    /// load in a new loop iteration). Returns the *previous* demand mask:
    /// warps set there consumed the last iteration and are about to want
    /// the new one — the right prefetch targets. Warps lagging several
    /// iterations behind are excluded until they catch up (prefetching
    /// for them would be far too early, Fig. 14a).
    pub fn refresh(&mut self, pc: Pc, bases: &[Addr], iter: u32) -> u64 {
        self.clock += 1;
        let clock = self.clock;
        if let Some(e) = self.lookup(pc) {
            let lead = e.leading_warp;
            let prev_mask = e.demand_seen;
            e.bases = BaseAddrs::new(bases);
            e.demand_seen = 1u64 << lead.min(63);
            e.iter = iter;
            e.lru = clock;
            prev_mask
        } else {
            0
        }
    }

    /// Touch the entry's LRU stamp (it was used for verification or
    /// prefetch generation).
    pub fn touch(&mut self, pc: Pc) {
        self.clock += 1;
        let clock = self.clock;
        if let Some(e) = self.lookup(pc) {
            e.lru = clock;
        }
    }

    /// Invalidate the entry for `pc` (stride turned out irregular).
    /// Order-preserving removal (iteration order is visible to the
    /// prefetch-generation traversal), so later entries shift down and
    /// are re-indexed — bounded by the 4-entry capacity.
    pub fn invalidate(&mut self, pc: Pc) {
        let Some(&i) = self.index.get(pc as u64) else {
            return;
        };
        self.entries.remove(i);
        self.index.remove(pc as u64);
        for j in i..self.entries.len() {
            self.index.insert(self.entries[j].pc as u64, j);
        }
    }

    /// Iterate live entries (prefetch-generation traversal, Fig. 9a).
    pub fn entries(&self) -> impl Iterator<Item = &PerCtaEntry> {
        self.entries.iter()
    }
}

impl PerCtaEntry {
    /// Whether warp `w` (index within the CTA) already issued its demand
    /// fetch for this PC.
    #[inline]
    pub fn demand_seen(&self, w: u32) -> bool {
        self.demand_seen & (1u64 << w.min(63)) != 0
    }

    /// Record warp `w`'s demand fetch.
    #[inline]
    pub fn mark_demand(&mut self, w: u32) {
        self.demand_seen |= 1u64 << w.min(63);
    }

    /// Whether every warp of a `warps_per_cta`-warp CTA has issued its
    /// demand for this PC (the entry cannot prefetch anything further
    /// until a refresh).
    #[inline]
    pub fn all_demands_seen(&self, warps_per_cta: u32) -> bool {
        if warps_per_cta == u32::MAX {
            return false;
        }
        let mask = if warps_per_cta >= 64 {
            u64::MAX
        } else {
            (1u64 << warps_per_cta) - 1
        };
        self.demand_seen & mask == mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cta() -> CtaCoord {
        CtaCoord {
            x: 1,
            y: 2,
            linear: 9,
        }
    }

    #[test]
    fn entry_layout_matches_table_i() {
        assert_eq!(PER_CTA_ENTRY_BYTES, 21);
        assert_eq!(PER_CTA_ENTRIES, 4);
    }

    #[test]
    fn insert_and_lookup() {
        let mut t = PerCtaTable::new();
        t.reset(cta());
        t.insert(0x40, 2, &[0x1000, 0x2000]);
        let e = t.lookup(0x40).unwrap();
        assert_eq!(e.leading_warp, 2);
        assert_eq!(*e.bases, [0x1000, 0x2000]);
        assert!(e.demand_seen(2));
        assert!(!e.demand_seen(0));
    }

    #[test]
    fn lru_replacement_evicts_least_recently_updated() {
        let mut t = PerCtaTable::new();
        t.reset(cta());
        for pc in 0..4u32 {
            t.insert(pc * 8, 0, &[pc as Addr * 0x100]);
        }
        // Touch PC 0 so PC 8 becomes the LRU victim.
        t.touch(0);
        t.insert(0x999, 1, &[0xabc]);
        assert!(t.probe(0).is_some());
        assert!(t.probe(8).is_none(), "LRU entry evicted");
        assert!(t.probe(0x999).is_some());
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn refresh_updates_bases_and_resets_demand_mask() {
        let mut t = PerCtaTable::new();
        t.reset(cta());
        t.insert(0x40, 1, &[0x1000]);
        t.lookup(0x40).unwrap().mark_demand(3);
        t.refresh(0x40, &[0x5000], 1);
        let e = t.lookup(0x40).unwrap();
        assert_eq!(*e.bases, [0x5000]);
        assert!(e.demand_seen(1), "leading warp stays marked");
        assert!(
            !e.demand_seen(3),
            "trailing marks cleared for new iteration"
        );
    }

    #[test]
    fn invalidate_removes_entry() {
        let mut t = PerCtaTable::new();
        t.reset(cta());
        t.insert(0x40, 0, &[0]);
        t.invalidate(0x40);
        assert!(t.probe(0x40).is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn reset_clears_for_new_cta() {
        let mut t = PerCtaTable::new();
        t.reset(cta());
        t.insert(0x40, 0, &[0]);
        let c2 = CtaCoord {
            x: 5,
            y: 0,
            linear: 5,
        };
        t.reset(c2);
        assert!(t.is_empty());
        assert_eq!(t.cta, Some(c2));
    }

    #[test]
    fn demand_mask_saturates_at_63() {
        let mut t = PerCtaTable::new();
        t.reset(cta());
        let e = t.insert(0x40, 70, &[0]).unwrap();
        assert!(e.demand_seen(70));
        assert!(e.demand_seen(63));
    }

    #[test]
    fn pinned_table_drops_insertions_when_full() {
        let mut t = PerCtaTable::with_policy(2, false);
        t.reset(cta());
        assert!(t.insert(1, 0, &[0]).is_some());
        assert!(t.insert(2, 0, &[0]).is_some());
        assert!(t.insert(3, 0, &[0]).is_none(), "pinned-full drops");
        assert!(t.probe(1).is_some() && t.probe(2).is_some());
        assert_eq!(t.len(), 2);
    }
}
