//! Set-associative cache with LRU replacement and per-line prefetch
//! provenance.
//!
//! Each line remembers whether a prefetch brought it in, which load PC and
//! warp the prefetch targeted, and when the prefetch was issued. This is
//! what lets the simulator measure the paper's accuracy (consumed
//! prefetches), early-prefetch ratio (evicted before use, Fig. 14a) and
//! prefetch-to-demand distance (Fig. 14b) without any approximation.

use crate::config::CacheConfig;
use crate::types::{Addr, Cycle, Pc, WarpSlot};

/// Provenance of a prefetched line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchProvenance {
    /// Load PC that generated the prefetch.
    pub pc: Pc,
    /// Warp the data was prefetched for.
    pub target_warp: Option<WarpSlot>,
    /// Cycle the prefetch request was issued.
    pub issue_cycle: Cycle,
}

/// Per-line state other than the tag and the LRU stamp. Kept out of the
/// tag array so the hot tag scan stays within one hardware cache line
/// per set; this struct is only touched for the single way a hit, fill
/// or invalidation acts on.
#[derive(Debug, Clone, Copy)]
struct LineMeta {
    dirty: bool,
    /// `Some` while the line holds unconsumed prefetched data.
    prefetch: Option<PrefetchProvenance>,
}

const EMPTY_META: LineMeta = LineMeta {
    dirty: false,
    prefetch: None,
};

/// Tag value marking an empty way. Real tags are line addresses and
/// never reach `Addr::MAX`, so the sentinel folds the `valid` bit into
/// the tag compare itself.
const TAG_INVALID: Addr = Addr::MAX;

/// Associativity the wide tag compare is specialised for. Eight u64
/// tags are one 64-byte hardware cache line and exactly two 256-bit
/// vector registers, so the full-config 8-way L2 probe becomes two
/// compares plus a movemask. Table III's 4-way L1D takes the scalar
/// scan.
const WIDE_WAYS: usize = 8;

/// Runtime check for the wide tag compare. Separate from the per-set
/// scan so `Cache::new` probes CPUID once and the hot path only tests
/// a bool.
#[inline]
fn wide_compare_available() -> bool {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    {
        false
    }
}

/// AVX2 8-way tag compare returning the **first** matching way, so it
/// is drop-in equivalent to the scalar `iter().position()` scan (the
/// refill path relies on first-match when a set briefly holds a
/// duplicate sentinel pattern). `TAG_INVALID` never equals a real line
/// address, so empty ways can never match a lookup.
///
/// # Safety
///
/// Caller must ensure AVX2 is available and `tags.len() == WIDE_WAYS`.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2")]
unsafe fn wide8_position(tags: &[Addr], needle: Addr) -> Option<usize> {
    use std::arch::x86_64::{
        __m256i, _mm256_cmpeq_epi64, _mm256_loadu_si256, _mm256_movemask_epi8, _mm256_set1_epi64x,
    };
    debug_assert_eq!(tags.len(), WIDE_WAYS);
    let key = _mm256_set1_epi64x(needle as i64);
    let lo = _mm256_loadu_si256(tags.as_ptr() as *const __m256i);
    let hi = _mm256_loadu_si256(tags.as_ptr().add(4) as *const __m256i);
    // Each 64-bit equal lane contributes 8 set bits to the movemask;
    // trailing_zeros / 8 recovers the lowest matching lane index.
    let lo_mask = _mm256_movemask_epi8(_mm256_cmpeq_epi64(lo, key)) as u32;
    if lo_mask != 0 {
        return Some(lo_mask.trailing_zeros() as usize / 8);
    }
    let hi_mask = _mm256_movemask_epi8(_mm256_cmpeq_epi64(hi, key)) as u32;
    if hi_mask != 0 {
        return Some(4 + hi_mask.trailing_zeros() as usize / 8);
    }
    None
}

/// Portable stand-in so non-x86 builds still compile; `wide_ok` is
/// always false there and this is never reached at runtime.
#[cfg(not(all(target_arch = "x86_64", not(miri))))]
unsafe fn wide8_position(tags: &[Addr], needle: Addr) -> Option<usize> {
    tags.iter().position(|&t| t == needle)
}

/// AVX2 8-way LRU victim scan: index of the smallest `last_use` stamp,
/// **earliest way on ties** — drop-in equivalent to the scalar
/// `min`-tracking loop (which itself matched `min_by_key` over the
/// former array-of-structs). Stamps are monotonically increasing `u64`
/// use-clock values; `_mm256_cmpgt_epi64` is a *signed* compare, so
/// lanes are sign-flipped first to map unsigned order onto signed.
///
/// # Safety
///
/// Caller must ensure AVX2 is available and `stamps.len() == WIDE_WAYS`.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2")]
unsafe fn wide8_min_index(stamps: &[u64]) -> usize {
    use std::arch::x86_64::{
        __m256i, _mm256_blendv_epi8, _mm256_cmpeq_epi64, _mm256_cmpgt_epi64, _mm256_loadu_si256,
        _mm256_movemask_epi8, _mm256_set1_epi64x, _mm256_storeu_si256, _mm256_xor_si256,
    };
    debug_assert_eq!(stamps.len(), WIDE_WAYS);
    let sign = _mm256_set1_epi64x(i64::MIN);
    let lo = _mm256_xor_si256(_mm256_loadu_si256(stamps.as_ptr() as *const __m256i), sign);
    let hi = _mm256_xor_si256(
        _mm256_loadu_si256(stamps.as_ptr().add(4) as *const __m256i),
        sign,
    );
    // Lanewise min of the two halves, then a scalar reduce of 4 lanes.
    let m = _mm256_blendv_epi8(lo, hi, _mm256_cmpgt_epi64(lo, hi));
    let mut lanes = [0i64; 4];
    _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, m);
    let min = lanes.iter().copied().min().unwrap_or(i64::MAX);
    // Earliest way holding the minimum: the low half wins ties with the
    // high half, and within a half the lowest set movemask bit wins.
    let key = _mm256_set1_epi64x(min);
    let lo_mask = _mm256_movemask_epi8(_mm256_cmpeq_epi64(lo, key)) as u32;
    if lo_mask != 0 {
        return lo_mask.trailing_zeros() as usize / 8;
    }
    let hi_mask = _mm256_movemask_epi8(_mm256_cmpeq_epi64(hi, key)) as u32;
    4 + hi_mask.trailing_zeros() as usize / 8
}

/// Portable stand-in (see [`wide8_position`]'s twin): never reached at
/// runtime because `wide_ok` is false off x86-64/AVX2.
#[cfg(not(all(target_arch = "x86_64", not(miri))))]
unsafe fn wide8_min_index(stamps: &[u64]) -> usize {
    let mut w = 0;
    for (i, &s) in stamps.iter().enumerate().skip(1) {
        if s < stamps[w] {
            w = i;
        }
    }
    w
}

/// Result of a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Line present. If it held unconsumed prefetched data, the
    /// provenance is returned and the line is marked consumed.
    Hit {
        /// Provenance when this demand is the first to touch a
        /// prefetched line.
        first_use_of_prefetch: Option<PrefetchProvenance>,
    },
    /// Line absent.
    Miss,
}

/// Result of filling a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FillOutcome {
    /// An unconsumed prefetched line was evicted to make room
    /// (an *early* prefetch per Fig. 14a).
    pub evicted_unused_prefetch: bool,
    /// A dirty line was evicted and must be written back.
    pub writeback: Option<Addr>,
}

/// A set-associative LRU cache (tag store only — the simulator carries no
/// data values).
///
/// The line state lives in three parallel flat arrays indexed by
/// `set * assoc + way` instead of an array-of-structs: the tag scan that
/// every access performs walks `tags` alone (a full 8-way set is one
/// 64-byte hardware cache line), victim selection walks `last_use`
/// alone, and the wide `meta` entry (dirty bit plus prefetch
/// provenance) is only loaded for the single way that hits or is
/// evicted.
#[derive(Debug)]
pub struct Cache {
    cfg: CacheConfig,
    tags: Vec<Addr>,
    last_use: Vec<u64>,
    meta: Vec<LineMeta>,
    sets: usize,
    assoc: usize,
    use_clock: u64,
    /// Whether the 8-way tag scan may use the AVX2 wide compare.
    /// Decided once at construction (`assoc == 8` and the CPU reports
    /// AVX2); `find` branches on this flag so the per-access cost is a
    /// predictable test, not a feature probe.
    wide_ok: bool,
}

impl Cache {
    /// Build an empty cache with `cfg` geometry.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets() as usize;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        let assoc = cfg.assoc as usize;
        Cache {
            cfg,
            tags: vec![TAG_INVALID; sets * assoc],
            last_use: vec![0; sets * assoc],
            meta: vec![EMPTY_META; sets * assoc],
            sets,
            assoc,
            use_clock: 0,
            wide_ok: assoc == WIDE_WAYS && wide_compare_available(),
        }
    }

    /// Geometry this cache was built with.
    #[inline]
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// XOR-folded set hash. Plain modulo indexing aliases badly under
    /// GPU address streams: partition interleaving strips low bits, and
    /// power-of-two row strides (stencil taps, matrix pitches) collapse
    /// onto a handful of sets. Folding the upper index bits in (as
    /// GPGPU-Sim's hashed L2 set function does) restores full capacity.
    #[inline]
    fn set_of(&self, line_addr: Addr) -> usize {
        let idx = (line_addr / self.cfg.line_size as Addr) as usize;
        let bits = self.sets.trailing_zeros() as usize;
        (idx ^ (idx >> bits) ^ (idx >> (2 * bits))) & (self.sets - 1)
    }

    /// Index of the way holding `line_addr` in `set`, if resident.
    #[inline]
    fn find(&self, set: usize, line_addr: Addr) -> Option<usize> {
        let base = set * self.assoc;
        if self.wide_ok {
            // SAFETY: `wide_ok` is only set when the CPU reported AVX2
            // at construction and `assoc == WIDE_WAYS`, so the slice
            // passed here is exactly 8 tags long.
            return unsafe { wide8_position(&self.tags[base..base + WIDE_WAYS], line_addr) }
                .map(|w| base + w);
        }
        self.tags[base..base + self.assoc]
            .iter()
            .position(|&t| t == line_addr)
            .map(|w| base + w)
    }

    /// Non-destructive presence check (no LRU update, no consumption).
    /// Prefetch engines use this to drop redundant requests.
    pub fn probe(&self, line_addr: Addr) -> bool {
        self.find(self.set_of(line_addr), line_addr).is_some()
    }

    /// Demand access to `line_addr`. Updates LRU and consumes prefetch
    /// provenance on first touch.
    pub fn access(&mut self, line_addr: Addr) -> Lookup {
        self.use_clock += 1;
        let clock = self.use_clock;
        let set = self.set_of(line_addr);
        match self.find(set, line_addr) {
            Some(i) => {
                self.last_use[i] = clock;
                let first = self.meta[i].prefetch.take();
                Lookup::Hit {
                    first_use_of_prefetch: first,
                }
            }
            None => Lookup::Miss,
        }
    }

    /// Install `line_addr`, evicting the LRU way if needed. `prefetch`
    /// carries provenance when the fill came from a prefetch request
    /// whose data no demand has touched yet.
    pub fn fill(&mut self, line_addr: Addr, prefetch: Option<PrefetchProvenance>) -> FillOutcome {
        self.fill_inner(line_addr, prefetch, false)
    }

    /// Install `line_addr` as dirty (write-allocate store at a
    /// write-back cache).
    pub fn fill_dirty(&mut self, line_addr: Addr) -> FillOutcome {
        self.fill_inner(line_addr, None, true)
    }

    fn fill_inner(
        &mut self,
        line_addr: Addr,
        prefetch: Option<PrefetchProvenance>,
        dirty: bool,
    ) -> FillOutcome {
        self.use_clock += 1;
        let clock = self.use_clock;
        let set = self.set_of(line_addr);
        let base = set * self.assoc;

        // Refill of a resident line (possible when a store invalidated and
        // a racing fill returns): overwrite in place.
        if let Some(i) = self.find(set, line_addr) {
            self.last_use[i] = clock;
            self.meta[i].prefetch = prefetch;
            self.meta[i].dirty |= dirty;
            return FillOutcome::default();
        }

        // First empty way, else the LRU way (earliest way on a stamp
        // tie, matching `min_by_key` over the former array-of-structs).
        // The 8-way wide path reuses the tag compare against the
        // `TAG_INVALID` sentinel for the empty-way scan and an AVX2
        // min-reduce for the stamp scan; both are first-match/
        // earliest-way equivalent to the scalar loops below.
        let victim = if self.wide_ok {
            // SAFETY: `wide_ok` implies AVX2 was detected and
            // `assoc == WIDE_WAYS`, so both slices are exactly 8 long.
            unsafe {
                match wide8_position(&self.tags[base..base + WIDE_WAYS], TAG_INVALID) {
                    Some(w) => base + w,
                    None => base + wide8_min_index(&self.last_use[base..base + WIDE_WAYS]),
                }
            }
        } else {
            let tags = &self.tags[base..base + self.assoc];
            match tags.iter().position(|&t| t == TAG_INVALID) {
                Some(w) => base + w,
                None => {
                    let stamps = &self.last_use[base..base + self.assoc];
                    let mut w = 0;
                    for (i, &s) in stamps.iter().enumerate().skip(1) {
                        if s < stamps[w] {
                            w = i;
                        }
                    }
                    base + w
                }
            }
        };
        let was_valid = self.tags[victim] != TAG_INVALID;
        let evicted_unused_prefetch = was_valid && self.meta[victim].prefetch.is_some();
        let writeback = (was_valid && self.meta[victim].dirty).then_some(self.tags[victim]);
        self.tags[victim] = line_addr;
        self.last_use[victim] = clock;
        self.meta[victim] = LineMeta { dirty, prefetch };
        FillOutcome {
            evicted_unused_prefetch,
            writeback,
        }
    }

    /// Mark a resident line dirty (store hit at a write-back cache).
    /// Returns whether the line was present.
    pub fn mark_dirty(&mut self, line_addr: Addr) -> bool {
        self.use_clock += 1;
        let clock = self.use_clock;
        let set = self.set_of(line_addr);
        match self.find(set, line_addr) {
            Some(i) => {
                self.meta[i].dirty = true;
                self.last_use[i] = clock;
                true
            }
            None => false,
        }
    }

    /// Invalidate `line_addr` if present (write-evict store policy).
    /// Returns the prefetch provenance if the invalidated line held
    /// unconsumed prefetched data.
    pub fn invalidate(&mut self, line_addr: Addr) -> Option<PrefetchProvenance> {
        let set = self.set_of(line_addr);
        match self.find(set, line_addr) {
            Some(i) => {
                self.tags[i] = TAG_INVALID;
                self.meta[i].prefetch.take()
            }
            None => None,
        }
    }

    /// Count of resident lines still holding unconsumed prefetched data
    /// (collected at kernel end for the accuracy denominator).
    pub fn unconsumed_prefetched_lines(&self) -> u64 {
        self.tags
            .iter()
            .zip(&self.meta)
            .filter(|(&t, m)| t != TAG_INVALID && m.prefetch.is_some())
            .count() as u64
    }

    /// Number of valid lines (occupancy diagnostics).
    pub fn valid_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t != TAG_INVALID).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CacheConfig {
        CacheConfig {
            size_bytes: 1024,
            line_size: 128,
            assoc: 2,
            mshr_entries: 4,
            mshr_merge: 4,
            hit_latency: 1,
        }
    }

    fn prov(pc: Pc) -> PrefetchProvenance {
        PrefetchProvenance {
            pc,
            target_warp: Some(1),
            issue_cycle: 10,
        }
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = Cache::new(cfg());
        assert_eq!(c.access(0x100), Lookup::Miss);
        c.fill(0x100, None);
        assert_eq!(
            c.access(0x100),
            Lookup::Hit {
                first_use_of_prefetch: None
            }
        );
        assert!(c.probe(0x100));
    }

    /// First `n` line addresses mapping to the same set as `base`.
    fn colliding(c: &Cache, base: Addr, n: usize) -> Vec<Addr> {
        let set = c.set_of(base);
        let mut out = vec![base];
        let mut a = base;
        while out.len() < n {
            a += 128;
            if c.set_of(a) == set {
                out.push(a);
            }
        }
        out
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = Cache::new(cfg());
        let s = colliding(&c, 0, 3);
        c.fill(s[0], None);
        c.fill(s[1], None);
        let _ = c.access(s[0]); // make s[1] the LRU way
        c.fill(s[2], None); // evicts s[1]
        assert!(c.probe(s[0]));
        assert!(!c.probe(s[1]));
        assert!(c.probe(s[2]));
    }

    #[test]
    fn prefetch_provenance_consumed_on_first_hit_only() {
        let mut c = Cache::new(cfg());
        c.fill(0x100, Some(prov(42)));
        match c.access(0x100) {
            Lookup::Hit {
                first_use_of_prefetch: Some(p),
            } => assert_eq!(p.pc, 42),
            other => panic!("expected first-use hit, got {other:?}"),
        }
        assert_eq!(
            c.access(0x100),
            Lookup::Hit {
                first_use_of_prefetch: None
            }
        );
        assert_eq!(c.unconsumed_prefetched_lines(), 0);
    }

    #[test]
    fn evicting_unused_prefetch_is_reported() {
        let mut c = Cache::new(cfg());
        let s = colliding(&c, 0, 3);
        c.fill(s[0], Some(prov(1)));
        c.fill(s[1], None);
        // Set full; next fill evicts the LRU way holding the prefetch.
        let out = c.fill(s[2], None);
        assert!(out.evicted_unused_prefetch);
    }

    #[test]
    fn evicting_consumed_prefetch_is_not_early() {
        let mut c = Cache::new(cfg());
        let s = colliding(&c, 0, 3);
        c.fill(s[0], Some(prov(1)));
        let _ = c.access(s[0]); // consume
        c.fill(s[1], None);
        let _ = c.access(s[1]); // make s[0] LRU
        let out = c.fill(s[2], None);
        assert!(!out.evicted_unused_prefetch);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = Cache::new(cfg());
        c.fill(0x100, Some(prov(5)));
        let p = c.invalidate(0x100);
        assert_eq!(p.unwrap().pc, 5);
        assert!(!c.probe(0x100));
        assert_eq!(c.invalidate(0x100), None);
    }

    #[test]
    fn refill_of_resident_line_does_not_evict() {
        let mut c = Cache::new(cfg());
        let s = colliding(&c, 0, 2);
        c.fill(s[0], None);
        c.fill(s[1], None);
        let out = c.fill(s[0], None);
        assert!(!out.evicted_unused_prefetch);
        assert!(c.probe(s[0]) && c.probe(s[1]));
    }

    #[test]
    fn dirty_lines_write_back_on_eviction() {
        let mut c = Cache::new(cfg());
        let s = colliding(&c, 0, 3);
        assert!(c.fill_dirty(s[0]).writeback.is_none());
        c.fill(s[1], None);
        let _ = c.access(s[1]); // keep s[0] as the LRU way
        let out = c.fill(s[2], None); // evicts s[0]
        assert_eq!(out.writeback, Some(s[0]));
    }

    #[test]
    fn clean_evictions_do_not_write_back() {
        let mut c = Cache::new(cfg());
        let s = colliding(&c, 0, 3);
        c.fill(s[0], None);
        c.fill(s[1], None);
        let out = c.fill(s[2], None);
        assert_eq!(out.writeback, None);
    }

    #[test]
    fn mark_dirty_hits_resident_lines_only() {
        let mut c = Cache::new(cfg());
        let s = colliding(&c, 0x100, 3);
        c.fill(s[0], None);
        assert!(c.mark_dirty(s[0]));
        assert!(!c.mark_dirty(s[0] + 0x8000));
        // The dirtied line writes back when evicted.
        c.fill(s[1], None);
        let out = c.fill(s[2], None);
        assert_eq!(out.writeback, Some(s[0]));
    }

    #[test]
    fn refill_merges_dirty_state() {
        let mut c = Cache::new(cfg());
        let s = colliding(&c, 0, 3);
        c.fill_dirty(s[0]);
        // A racing clean refill must not lose the dirty bit.
        let out = c.fill(s[0], None);
        assert_eq!(out.writeback, None);
        c.fill(s[1], None);
        let _ = c.access(s[1]);
        let out = c.fill(s[2], None);
        assert_eq!(out.writeback, Some(s[0]));
    }

    /// The wide compare must agree with the scalar `position` scan on
    /// every probe pattern: misses, hits in each way, the invalid
    /// sentinel, and duplicate tags (first match wins). Runs the same
    /// workload through an 8-way cache (wide path where the host has
    /// AVX2) and a direct scalar scan over its tag array.
    #[test]
    fn wide_tag_compare_matches_scalar_scan() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 8 * 128 * 16,
            line_size: 128,
            assoc: 8,
            mshr_entries: 4,
            mshr_merge: 4,
            hit_latency: 1,
        });
        assert_eq!(c.assoc, WIDE_WAYS);

        // Deterministic LCG address stream: fills, probes and
        // invalidations exercise hits in every way plus misses.
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        let mut step = || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) * 128
        };
        let mut addrs = Vec::new();
        for _ in 0..512 {
            let a = step();
            c.fill(a, None);
            addrs.push(a);
        }
        for (i, &a) in addrs.iter().enumerate() {
            let probes = [a, a + 128, step()];
            for p in probes {
                let set = c.set_of(p);
                let base = set * c.assoc;
                let scalar = c.tags[base..base + c.assoc]
                    .iter()
                    .position(|&t| t == p)
                    .map(|w| base + w);
                assert_eq!(c.find(set, p), scalar, "probe {p:#x} step {i}");
            }
            if i % 7 == 0 {
                c.invalidate(a);
            }
        }

        // First-match semantics on a hand-built duplicate set: way 2
        // and way 5 hold the same tag; both paths must report way 2.
        let set = c.set_of(0);
        let base = set * c.assoc;
        for w in 0..WIDE_WAYS {
            c.tags[base + w] = TAG_INVALID;
        }
        c.tags[base + 2] = 0;
        c.tags[base + 5] = 0;
        assert_eq!(c.find(set, 0), Some(base + 2));
        // Misses in the duplicate set still miss.
        assert_eq!(c.find(set, 640), None);
    }

    /// The wide victim scan must agree with the scalar min-tracking loop
    /// on every stamp pattern — distinct stamps, ties in either half,
    /// all-equal, and the unsigned-overflow corner (stamps with the top
    /// bit set, which the signed vector compare must sign-flip).
    #[test]
    fn wide_victim_scan_matches_scalar_scan() {
        if !wide_compare_available() {
            return; // scalar path is the reference; nothing to compare
        }
        let scalar = |stamps: &[u64]| {
            let mut w = 0;
            for (i, &s) in stamps.iter().enumerate().skip(1) {
                if s < stamps[w] {
                    w = i;
                }
            }
            w
        };
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut step = || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            x
        };
        let mut cases: Vec<[u64; WIDE_WAYS]> = vec![
            [0; WIDE_WAYS],
            [u64::MAX; WIDE_WAYS],
            [7, 7, 7, 3, 3, 7, 7, 7],
            [3, 7, 7, 7, 7, 7, 7, 3],
            [u64::MAX, 0, u64::MAX / 2, 1, u64::MAX, 0, 2, 3],
            std::array::from_fn(|i| i as u64),
            std::array::from_fn(|i| (WIDE_WAYS - i) as u64),
        ];
        for _ in 0..256 {
            // Mix full-range and small-range stamps so ties are common.
            let mask = if step() & 1 == 0 { u64::MAX } else { 0x7 };
            cases.push(std::array::from_fn(|_| step() & mask));
        }
        for stamps in &cases {
            // SAFETY: AVX2 checked above; the array is 8 long.
            let wide = unsafe { wide8_min_index(stamps) };
            assert_eq!(wide, scalar(stamps), "stamps {stamps:?}");
        }
        // And through the public fill path: a full 8-way set must evict
        // the same way whichever scan picked the victim.
        let mut c = Cache::new(CacheConfig {
            size_bytes: 8 * 128 * 16,
            line_size: 128,
            assoc: 8,
            mshr_entries: 4,
            mshr_merge: 4,
            hit_latency: 1,
        });
        let s = colliding(&c, 0, 9);
        for &a in &s[..8] {
            c.fill(a, None);
        }
        let _ = c.access(s[3]); // ways 0..8 resident; way with s[0] is LRU
        let set = c.set_of(s[0]);
        let base = set * c.assoc;
        let expect = base + scalar(&c.last_use[base..base + WIDE_WAYS]);
        let expect_tag = c.tags[expect];
        c.fill(s[8], None);
        assert!(!c.probe(expect_tag), "victim way not evicted");
        assert!(c.probe(s[8]));
    }

    #[test]
    fn occupancy_counts() {
        let mut c = Cache::new(cfg());
        assert_eq!(c.valid_lines(), 0);
        c.fill(0x000, Some(prov(1)));
        c.fill(0x080, None);
        assert_eq!(c.valid_lines(), 2);
        assert_eq!(c.unconsumed_prefetched_lines(), 1);
    }
}
