//! The CTA-Aware Prefetcher (CAP, §V-B/§V-C).
//!
//! CAP exploits the paper's central observation: within one kernel every
//! CTA shares a single warp-to-warp stride Δ per load PC, while each CTA
//! has its own unpredictable base address θ. It therefore
//!
//! 1. captures θ per (CTA, PC) from each CTA's *leading warp* into the
//!    [`PerCtaTable`]s;
//! 2. computes Δ per PC from the first *trailing* warp of the leading CTA
//!    into the shared [`DistTable`];
//! 3. generates prefetches `base(CTA) + Δ·(w − w_lead)` for every
//!    trailing warp `w` of every registered CTA — in both trigger orders
//!    (Fig. 9a: bases settle before the stride; Fig. 9b: stride known
//!    before a trailing CTA's base);
//! 4. verifies every trailing demand fetch against its prediction and
//!    shuts prefetching off per-PC after 128 mispredictions;
//! 5. excludes indirect (data-dependent) loads and loads coalescing into
//!    more than four lines.

use caps_gpu_sim::prefetch::{DemandObservation, PrefetchRequest, Prefetcher};
use caps_gpu_sim::types::{line_base, Addr, CtaCoord, CtaSlot, Pc};

use crate::dist::{DistTable, DEFAULT_MISPREDICT_THRESHOLD, DIST_ENTRIES};
use crate::per_cta::{PerCtaTable, MAX_BASE_ADDRS, PER_CTA_ENTRIES};

/// Tuning knobs of the CTA-aware prefetcher; defaults follow the paper.
#[derive(Debug, Clone, Copy)]
pub struct CapConfig {
    /// PerCTA tables (one per hardware CTA slot; Fermi: 8).
    pub cta_slots: usize,
    /// Entries per PerCTA table.
    pub per_cta_entries: usize,
    /// Entries in the shared DIST table.
    pub dist_entries: usize,
    /// Misprediction-counter threshold (prefetch shut-off).
    pub mispredict_threshold: u8,
    /// Maximum coalesced lines a targeted load may produce; at most
    /// [`MAX_BASE_ADDRS`], the capacity of an entry's base vector.
    pub max_target_lines: usize,
    /// Cache line size (for aligning generated addresses).
    pub line_size: u32,
    /// Replacement policy when a table is full: `true` evicts the
    /// least-recently-updated entry (the paper's §V-B policy); `false`
    /// pins the first PCs seen, which avoids churn on kernels with more
    /// static loads than entries. The paper notes its benchmarks target
    /// 2–4 loads, where the policies coincide; see DESIGN.md.
    pub lru_replacement: bool,
}

impl Default for CapConfig {
    fn default() -> Self {
        CapConfig {
            cta_slots: 8,
            per_cta_entries: PER_CTA_ENTRIES,
            dist_entries: DIST_ENTRIES,
            mispredict_threshold: DEFAULT_MISPREDICT_THRESHOLD,
            max_target_lines: MAX_BASE_ADDRS,
            line_size: 128,
            lru_replacement: false,
        }
    }
}

/// The CTA-aware prefetch engine of one SM.
pub struct CtaAwarePrefetcher {
    cfg: CapConfig,
    tables: Vec<PerCtaTable>,
    dist: DistTable,
    table_accesses: u64,
    mispredicts: u64,
}

impl CtaAwarePrefetcher {
    /// Engine with paper-default parameters.
    pub fn new() -> Self {
        Self::with_config(CapConfig::default())
    }

    /// Engine with explicit parameters (ablations).
    ///
    /// # Panics
    /// If `cfg.max_target_lines` exceeds [`MAX_BASE_ADDRS`].
    pub fn with_config(cfg: CapConfig) -> Self {
        assert!(
            cfg.max_target_lines <= MAX_BASE_ADDRS,
            "a PerCTA entry holds at most {MAX_BASE_ADDRS} base addresses"
        );
        CtaAwarePrefetcher {
            tables: (0..cfg.cta_slots)
                .map(|_| PerCtaTable::with_policy(cfg.per_cta_entries, cfg.lru_replacement))
                .collect(),
            dist: DistTable::with_policy(
                cfg.dist_entries,
                cfg.mispredict_threshold,
                cfg.lru_replacement,
            ),
            cfg,
            table_accesses: 0,
            mispredicts: 0,
        }
    }

    /// The shared stride table (diagnostics/tests).
    pub fn dist(&self) -> &DistTable {
        &self.dist
    }

    /// The PerCTA table of `slot` (diagnostics/tests).
    pub fn per_cta(&self, slot: CtaSlot) -> &PerCtaTable {
        &self.tables[slot]
    }

    /// Generate prefetches for every trailing warp of the CTA in `slot`
    /// whose demand has not been observed, using stride `delta`.
    fn generate_for_slot(
        &mut self,
        slot: CtaSlot,
        pc: Pc,
        delta: i64,
        warps_per_cta: u32,
        out: &mut Vec<PrefetchRequest>,
    ) {
        self.generate_for_slot_masked(slot, pc, delta, warps_per_cta, u64::MAX, out);
    }

    /// [`Self::generate_for_slot`] restricted to warps whose bit is set
    /// in `eligible` (loop refreshes target only caught-up warps).
    fn generate_for_slot_masked(
        &mut self,
        slot: CtaSlot,
        pc: Pc,
        delta: i64,
        warps_per_cta: u32,
        eligible: u64,
        out: &mut Vec<PrefetchRequest>,
    ) {
        self.table_accesses += 1;
        let line_size = self.cfg.line_size;
        let table = &mut self.tables[slot];
        let Some(entry) = table.lookup(pc) else {
            return;
        };
        let lead = entry.leading_warp;
        for w in 0..warps_per_cta {
            if w == lead || entry.demand_seen(w) || eligible & (1u64 << w.min(63)) == 0 {
                continue;
            }
            let off = delta * (w as i64 - lead as i64);
            for &base in entry.bases.iter() {
                let addr = base as i64 + off;
                if addr < 0 {
                    continue;
                }
                out.push(PrefetchRequest {
                    line: line_base(addr as Addr, line_size),
                    pc,
                    target_warp: Some(slot * warps_per_cta as usize + w as usize),
                });
            }
        }
    }

    /// Insert into DIST; when pinned-full, scrub a stride whose PC has
    /// no live PerCTA entry anywhere (dead metadata) and retry.
    fn dist_insert_scrubbing(&mut self, pc: Pc, delta: i64) -> bool {
        if self.dist.insert(pc, delta) {
            return true;
        }
        let dead = self
            .dist
            .pcs()
            .into_iter()
            .find(|&p| self.tables.iter().all(|t| t.probe(p).is_none()));
        if let Some(victim) = dead {
            self.dist.invalidate(victim);
            return self.dist.insert(pc, delta);
        }
        false
    }

    /// Case 1 (Fig. 9a): the stride was just detected — traverse every
    /// PerCTA table and prefetch for each CTA whose base is registered.
    fn generate_everywhere(
        &mut self,
        pc: Pc,
        delta: i64,
        warps_per_cta: u32,
        out: &mut Vec<PrefetchRequest>,
    ) {
        for slot in 0..self.tables.len() {
            if self.tables[slot].probe(pc).is_some() {
                self.generate_for_slot(slot, pc, delta, warps_per_cta, out);
            }
        }
    }
}

impl Default for CtaAwarePrefetcher {
    fn default() -> Self {
        Self::new()
    }
}

impl Prefetcher for CtaAwarePrefetcher {
    fn name(&self) -> &'static str {
        "CAPS"
    }

    fn on_demand(&mut self, obs: &DemandObservation<'_>, out: &mut Vec<PrefetchRequest>) {
        // Indirect accesses: backward register tracing says the address
        // derives from loaded data — excluded from prefetch (§V-B).
        if !obs.is_affine {
            return;
        }
        // PerCTA + DIST lookups happen for every targeted load.
        self.table_accesses += 2;

        // A CTA slot we have never seen launch (defensive; the SM always
        // announces launches first).
        if obs.cta_slot >= self.tables.len() {
            return;
        }
        // Uncoalesced loads (> 4 lines) are not targeted; drop any state.
        if obs.lines.len() > self.cfg.max_target_lines {
            self.tables[obs.cta_slot].invalidate(obs.pc);
            return;
        }

        let slot = obs.cta_slot;
        let pc = obs.pc;
        let throttled = self.dist.throttled(pc);
        let known_stride = self.dist.stride(pc);

        let entry_state = {
            let table = &mut self.tables[slot];
            match table.lookup(pc) {
                None => EntryState::Absent,
                Some(e) if e.leading_warp == obs.warp_in_cta => EntryState::LeadingAgain,
                Some(_) => EntryState::Trailing,
            }
        };

        match entry_state {
            EntryState::Absent => {
                // This warp is the leading warp of its CTA for this PC:
                // register the base-address vector. Exhausted entries
                // (all demands observed) are evicted first when full.
                let registered = self.tables[slot]
                    .insert_full(pc, obs.warp_in_cta, obs.lines, obs.iter, obs.warps_per_cta)
                    .is_some();
                self.table_accesses += 1;
                // Case 2 (Fig. 9b): the stride is already known — issue
                // prefetches for all trailing warps of *this* CTA.
                if registered {
                    if let Some(delta) = known_stride {
                        if !throttled {
                            self.generate_for_slot(slot, pc, delta, obs.warps_per_cta, out);
                        }
                    }
                }
            }
            EntryState::LeadingAgain => {
                // Loop re-execution by the leading warp: refresh bases
                // for the new iteration and prefetch for the trailing
                // warps that consumed the previous one.
                let caught_up = self.tables[slot].refresh(pc, obs.lines, obs.iter);
                self.table_accesses += 1;
                if let Some(delta) = known_stride {
                    if !throttled {
                        self.generate_for_slot_masked(
                            slot,
                            pc,
                            delta,
                            obs.warps_per_cta,
                            caught_up,
                            out,
                        );
                    }
                }
            }
            EntryState::Trailing => {
                let (lead, bases, entry_iter) = {
                    let e = self.tables[slot].probe(pc).expect("trailing implies entry");
                    (e.leading_warp, e.bases, e.iter)
                };
                let dw = obs.warp_in_cta as i64 - lead as i64;
                debug_assert!(dw != 0);
                // Detection and verification compare addresses of two
                // warps executing the *same* dynamic instance of the
                // load; a trailing warp in a different loop iteration
                // than the captured bases carries no information.
                let same_iter = entry_iter == obs.iter;
                match known_stride {
                    None if same_iter => {
                        // Stride detection from two warps of one CTA. All
                        // per-line candidate strides must agree (§V-B).
                        match stride_candidate(&bases, obs.lines, dw) {
                            Some(delta) => {
                                let resident = self.dist_insert_scrubbing(pc, delta);
                                self.table_accesses += 1;
                                self.tables[slot]
                                    .lookup(pc)
                                    .expect("live")
                                    .mark_demand(obs.warp_in_cta);
                                // Case 1 (Fig. 9a): prefetch for all
                                // registered CTAs.
                                if resident {
                                    self.generate_everywhere(pc, delta, obs.warps_per_cta, out);
                                }
                            }
                            None => {
                                // Not a striding load: invalidate.
                                self.tables[slot].invalidate(pc);
                            }
                        }
                    }
                    Some(delta) if same_iter => {
                        // Verification: every demand fetch recomputes its
                        // prediction and compares (§V-B).
                        let predicted_ok = bases.len() == obs.lines.len()
                            && bases.iter().zip(obs.lines).all(|(&b, &l)| {
                                let p = b as i64 + delta * dw;
                                p >= 0 && line_base(p as Addr, self.cfg.line_size) == l
                            });
                        if !predicted_ok {
                            self.dist.mispredict(pc);
                            self.mispredicts += 1;
                        }
                        self.tables[slot]
                            .lookup(pc)
                            .expect("live")
                            .mark_demand(obs.warp_in_cta);
                    }
                    _ => {
                        // Iteration mismatch: record the demand only.
                        self.tables[slot]
                            .lookup(pc)
                            .expect("live")
                            .mark_demand(obs.warp_in_cta);
                    }
                }
            }
        }
    }

    fn on_cta_launch(&mut self, cta_slot: CtaSlot, cta: CtaCoord) {
        // One PerCTA table per hardware CTA slot: configurations with
        // more resident CTAs (e.g. Kepler-class, 16 slots) get more
        // tables, exactly as the paper's Table II arithmetic scales.
        if cta_slot >= self.tables.len() {
            let entries = self.cfg.per_cta_entries;
            let lru = self.cfg.lru_replacement;
            self.tables
                .resize_with(cta_slot + 1, || PerCtaTable::with_policy(entries, lru));
        }
        self.tables[cta_slot].reset(cta);
    }

    fn on_cta_complete(&mut self, cta_slot: CtaSlot) {
        if cta_slot < self.tables.len() {
            self.tables[cta_slot].clear();
        }
    }

    fn table_accesses(&self) -> u64 {
        self.table_accesses
    }

    fn mispredicts(&self) -> u64 {
        self.mispredicts
    }
}

enum EntryState {
    Absent,
    LeadingAgain,
    Trailing,
}

/// The single stride implied by two base vectors `dw` warps apart, if one
/// exists: all per-line strides must be equal and divide evenly.
fn stride_candidate(bases: &[Addr], lines: &[Addr], dw: i64) -> Option<i64> {
    if bases.is_empty() || bases.len() != lines.len() || dw == 0 {
        return None;
    }
    let mut delta = None;
    for (&b, &l) in bases.iter().zip(lines) {
        let diff = l as i64 - b as i64;
        if diff % dw != 0 {
            return None;
        }
        let d = diff / dw;
        match delta {
            None => delta = Some(d),
            Some(prev) if prev != d => return None,
            Some(_) => {}
        }
    }
    delta
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs<'a>(
        pc: Pc,
        cta_slot: CtaSlot,
        cta_linear: u32,
        warp_in_cta: u32,
        lines: &'a [Addr],
    ) -> DemandObservation<'a> {
        DemandObservation {
            cycle: 0,
            pc,
            cta_slot,
            cta: CtaCoord::from_linear(cta_linear, 100),
            warp_in_cta,
            warp_slot: cta_slot * 4 + warp_in_cta as usize,
            warps_per_cta: 4,
            lines,
            is_affine: true,
            iter: 0,
        }
    }

    fn launch(p: &mut CtaAwarePrefetcher, slot: CtaSlot, linear: u32) {
        p.on_cta_launch(slot, CtaCoord::from_linear(linear, 100));
    }

    #[test]
    fn case1_bases_before_stride_fig9a() {
        // A0, B0, C0 register bases; A1 detects Δ; prefetches must fire
        // for trailing warps of ALL registered CTAs.
        let mut p = CtaAwarePrefetcher::new();
        for (slot, linear) in [(0, 0), (1, 7), (2, 11)] {
            launch(&mut p, slot, linear);
        }
        let mut out = Vec::new();
        p.on_demand(&obs(8, 0, 0, 0, &[0x10000]), &mut out); // A0
        p.on_demand(&obs(8, 1, 7, 0, &[0x90000]), &mut out); // B0
        p.on_demand(&obs(8, 2, 11, 0, &[0x50000]), &mut out); // C0
        assert!(out.is_empty(), "no stride yet — no prefetches");
        p.on_demand(&obs(8, 0, 0, 1, &[0x10000 + 512]), &mut out); // A1 → Δ=512
        assert_eq!(p.dist().stride(8), Some(512));
        // A: warps 2,3 (A0 led, A1 seen); B: 1,2,3; C: 1,2,3 → 8 reqs.
        assert_eq!(out.len(), 8);
        assert!(out.contains(&PrefetchRequest {
            line: 0x90000 + 512,
            pc: 8,
            target_warp: Some(4 + 1),
        }));
        assert!(out.contains(&PrefetchRequest {
            line: 0x50000 + 3 * 512,
            pc: 8,
            target_warp: Some(2 * 4 + 3),
        }));
    }

    #[test]
    fn case2_stride_before_base_fig9b() {
        // Stride learned in CTA A; later B0 registers its base → B's
        // trailing warps are prefetched immediately.
        let mut p = CtaAwarePrefetcher::new();
        launch(&mut p, 0, 0);
        let mut out = Vec::new();
        p.on_demand(&obs(8, 0, 0, 0, &[0x10000]), &mut out);
        p.on_demand(&obs(8, 0, 0, 1, &[0x10200]), &mut out); // Δ=512
        out.clear();
        launch(&mut p, 1, 9);
        p.on_demand(&obs(8, 1, 9, 0, &[0x70000]), &mut out); // B0
        let lines: Vec<Addr> = out.iter().map(|r| r.line).collect();
        assert_eq!(lines, vec![0x70000 + 512, 0x70000 + 1024, 0x70000 + 1536]);
        assert_eq!(out[0].target_warp, Some(4 + 1));
    }

    #[test]
    fn multi_line_base_vector_prefetches_all_lines() {
        let mut p = CtaAwarePrefetcher::new();
        launch(&mut p, 0, 0);
        let mut out = Vec::new();
        p.on_demand(&obs(8, 0, 0, 0, &[0x1000, 0x8000]), &mut out);
        p.on_demand(&obs(8, 0, 0, 1, &[0x1000 + 256, 0x8000 + 256]), &mut out);
        // Δ=256, warps 2 and 3 × 2 lines = 4 prefetches.
        assert_eq!(out.len(), 4);
        assert!(out.iter().any(|r| r.line == line_base(0x1000 + 512, 128)));
        assert!(out.iter().any(|r| r.line == line_base(0x8000 + 768, 128)));
    }

    #[test]
    fn inconsistent_per_line_strides_invalidate_entry() {
        let mut p = CtaAwarePrefetcher::new();
        launch(&mut p, 0, 0);
        let mut out = Vec::new();
        p.on_demand(&obs(8, 0, 0, 0, &[0x1000, 0x8000]), &mut out);
        // Line 0 strides by 256, line 1 by 512 → not a striding load.
        p.on_demand(&obs(8, 0, 0, 1, &[0x1000 + 256, 0x8000 + 512]), &mut out);
        assert!(out.is_empty());
        assert!(p.per_cta(0).probe(8).is_none(), "entry invalidated");
        assert_eq!(p.dist().stride(8), None);
    }

    #[test]
    fn indirect_loads_are_excluded() {
        let mut p = CtaAwarePrefetcher::new();
        launch(&mut p, 0, 0);
        let mut out = Vec::new();
        let mut o = obs(8, 0, 0, 0, &[0x1000]);
        o.is_affine = false;
        p.on_demand(&o, &mut out);
        assert!(out.is_empty());
        assert!(
            p.per_cta(0).is_empty(),
            "indirect loads never enter the tables"
        );
    }

    #[test]
    fn uncoalesced_loads_are_not_targeted() {
        let mut p = CtaAwarePrefetcher::new();
        launch(&mut p, 0, 0);
        let mut out = Vec::new();
        let lines: Vec<Addr> = (0..6).map(|i| i * 128).collect();
        p.on_demand(&obs(8, 0, 0, 0, &lines), &mut out);
        assert!(p.per_cta(0).is_empty());
        assert!(out.is_empty());
    }

    #[test]
    fn misprediction_counter_throttles_prefetch() {
        let mut p = CtaAwarePrefetcher::with_config(CapConfig {
            mispredict_threshold: 2,
            ..CapConfig::default()
        });
        launch(&mut p, 0, 0);
        let mut out = Vec::new();
        p.on_demand(&obs(8, 0, 0, 0, &[0x1000]), &mut out);
        p.on_demand(&obs(8, 0, 0, 1, &[0x1200]), &mut out); // Δ=512
        out.clear();
        // Two wrong demands → counter hits threshold.
        p.on_demand(&obs(8, 0, 0, 2, &[0x9000]), &mut out);
        p.on_demand(&obs(8, 0, 0, 3, &[0xa000]), &mut out);
        assert_eq!(p.mispredicts(), 2);
        assert!(p.dist().throttled(8));
        // A new CTA registers a base: throttled → no prefetches.
        launch(&mut p, 1, 5);
        out.clear();
        p.on_demand(&obs(8, 1, 5, 0, &[0x40000]), &mut out);
        assert!(out.is_empty(), "throttled PC must not prefetch");
    }

    #[test]
    fn correct_predictions_do_not_mispredict() {
        let mut p = CtaAwarePrefetcher::new();
        launch(&mut p, 0, 0);
        let mut out = Vec::new();
        p.on_demand(&obs(8, 0, 0, 0, &[0x1000]), &mut out);
        p.on_demand(&obs(8, 0, 0, 1, &[0x1200]), &mut out);
        p.on_demand(&obs(8, 0, 0, 2, &[0x1400]), &mut out);
        p.on_demand(&obs(8, 0, 0, 3, &[0x1600]), &mut out);
        assert_eq!(p.mispredicts(), 0);
        assert!(!p.dist().throttled(8));
    }

    #[test]
    fn loop_refresh_prefetches_only_caught_up_warps() {
        let mut p = CtaAwarePrefetcher::new();
        launch(&mut p, 0, 0);
        let mut out = Vec::new();
        p.on_demand(&obs(8, 0, 0, 0, &[0x1000]), &mut out);
        p.on_demand(&obs(8, 0, 0, 1, &[0x1200]), &mut out); // Δ=512, iter 0
        let mut o2 = obs(8, 0, 0, 2, &[0x1400]);
        o2.iter = 0;
        p.on_demand(&o2, &mut out); // warp 2 caught up; warp 3 lags
        out.clear();
        // Leading warp re-executes the PC at iteration 1 (base moved).
        let mut lead = obs(8, 0, 0, 0, &[0x5000]);
        lead.iter = 1;
        p.on_demand(&lead, &mut out);
        let lines: Vec<Addr> = out.iter().map(|r| r.line).collect();
        // Only warps 1 and 2 (who consumed iteration 0) are targeted;
        // warp 3 would receive far-too-early data (Fig. 14a).
        assert_eq!(lines, vec![0x5000 + 512, 0x5000 + 1024]);
    }

    #[test]
    fn demand_seen_warps_are_skipped() {
        let mut p = CtaAwarePrefetcher::new();
        launch(&mut p, 0, 0);
        let mut out = Vec::new();
        p.on_demand(&obs(8, 0, 0, 0, &[0x1000]), &mut out);
        p.on_demand(&obs(8, 0, 0, 2, &[0x1400]), &mut out); // Δ=(0x400)/2=512
                                                            // Warp 2 led detection; prefetches go to warps 1 and 3 only.
        let targets: Vec<_> = out.iter().map(|r| r.target_warp).collect();
        assert_eq!(targets, vec![Some(1), Some(3)]);
    }

    #[test]
    fn negative_stride_supported() {
        let mut p = CtaAwarePrefetcher::new();
        launch(&mut p, 0, 0);
        let mut out = Vec::new();
        p.on_demand(&obs(8, 0, 0, 0, &[0x10000]), &mut out);
        p.on_demand(&obs(8, 0, 0, 1, &[0x10000 - 512]), &mut out);
        assert_eq!(p.dist().stride(8), Some(-512));
        let lines: Vec<Addr> = out.iter().map(|r| r.line).collect();
        assert_eq!(lines, vec![0x10000 - 1024, 0x10000 - 1536]);
    }

    #[test]
    fn cta_completion_clears_slot_state() {
        let mut p = CtaAwarePrefetcher::new();
        launch(&mut p, 0, 0);
        let mut out = Vec::new();
        p.on_demand(&obs(8, 0, 0, 0, &[0x1000]), &mut out);
        p.on_cta_complete(0);
        assert!(p.per_cta(0).is_empty());
        // A new CTA in the slot re-registers from scratch.
        launch(&mut p, 0, 42);
        p.on_demand(&obs(8, 0, 42, 1, &[0x7000]), &mut out);
        let e = p.per_cta(0).probe(8).unwrap();
        assert_eq!(e.leading_warp, 1, "first issuing warp becomes leading");
    }

    #[test]
    fn stride_candidate_math() {
        assert_eq!(stride_candidate(&[100], &[300], 2), Some(100));
        assert_eq!(stride_candidate(&[100], &[301], 2), None, "non-divisible");
        assert_eq!(stride_candidate(&[100, 200], &[300, 400], 2), Some(100));
        assert_eq!(
            stride_candidate(&[100, 200], &[300, 500], 2),
            None,
            "inconsistent"
        );
        assert_eq!(stride_candidate(&[], &[], 1), None);
        assert_eq!(
            stride_candidate(&[100], &[200, 300], 1),
            None,
            "length mismatch"
        );
    }

    #[test]
    fn table_accesses_are_counted() {
        let mut p = CtaAwarePrefetcher::new();
        launch(&mut p, 0, 0);
        let mut out = Vec::new();
        p.on_demand(&obs(8, 0, 0, 0, &[0x1000]), &mut out);
        assert!(p.table_accesses() >= 3);
    }
}
