//! Per-warp execution context.
//!
//! A warp is the smallest scheduled unit (§II-A): it owns a program
//! counter, a structured-loop stack, and an outstanding-load counter that
//! implements the long-latency dependence point ([`crate::isa::Op::WaitLoads`]).

use crate::types::{CtaCoord, CtaSlot, Cycle, KernelId};

/// Scheduling state of a warp slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpState {
    /// Slot holds no warp.
    Vacant,
    /// Can issue (possibly gated by an execution-latency timer).
    Ready,
    /// Descheduled at a `WaitLoads` with loads outstanding.
    WaitingMem,
    /// Parked at a CTA barrier.
    AtBarrier,
    /// Ran to completion.
    Finished,
}

/// One active loop nest level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopFrame {
    /// Index of the `LoopBegin` op.
    pub start: usize,
    /// Iterations still to run (including the current one).
    pub remaining: u32,
    /// Zero-based index of the current iteration (feeds `iter_stride`).
    pub iter: u32,
}

/// Execution context of one hardware warp slot.
#[derive(Debug, Clone)]
pub struct WarpCtx {
    /// Scheduling state.
    pub state: WarpState,
    /// CTA slot this warp belongs to.
    pub cta_slot: CtaSlot,
    /// Warp index within its CTA (0 = the natural leading warp).
    pub warp_in_cta: u32,
    /// Coordinates of the owning CTA.
    pub cta: CtaCoord,
    /// Next instruction index.
    pub pc: usize,
    /// Active loop nest.
    pub loop_stack: Vec<LoopFrame>,
    /// Line requests issued and not yet filled.
    pub outstanding_loads: u32,
    /// Warp cannot issue before this cycle (ALU latency chain).
    pub busy_until: Cycle,
    /// Marked as its CTA's leading warp (PAS priority bit, §V-A).
    pub leading: bool,
    /// Warp instructions issued (IPC numerator contribution).
    pub instructions: u64,
    /// Kernel context (tenant) the warp executes; selects the program
    /// and tags every memory request the warp produces.
    pub kernel: KernelId,
}

impl WarpCtx {
    /// An empty slot.
    pub fn vacant() -> Self {
        WarpCtx {
            state: WarpState::Vacant,
            cta_slot: 0,
            warp_in_cta: 0,
            cta: CtaCoord {
                x: 0,
                y: 0,
                linear: 0,
            },
            pc: 0,
            loop_stack: Vec::new(),
            outstanding_loads: 0,
            busy_until: 0,
            leading: false,
            instructions: 0,
            kernel: 0,
        }
    }

    /// (Re)initialize the slot for a newly launched warp.
    pub fn launch(
        &mut self,
        cta_slot: CtaSlot,
        warp_in_cta: u32,
        cta: CtaCoord,
        leading: bool,
        kernel: KernelId,
    ) {
        self.state = WarpState::Ready;
        self.cta_slot = cta_slot;
        self.warp_in_cta = warp_in_cta;
        self.cta = cta;
        self.pc = 0;
        self.loop_stack.clear();
        self.outstanding_loads = 0;
        self.busy_until = 0;
        self.leading = leading;
        self.kernel = kernel;
        // `instructions` accumulates across warps for SM-lifetime IPC.
    }

    /// Innermost loop iteration index (0 outside loops) — the `iter`
    /// input of address patterns.
    #[inline]
    pub fn current_iter(&self) -> u32 {
        self.loop_stack.last().map_or(0, |f| f.iter)
    }

    /// `true` when the warp occupies its slot and has not finished.
    #[inline]
    pub fn is_active(&self) -> bool {
        !matches!(self.state, WarpState::Vacant | WarpState::Finished)
    }

    /// `true` when the scheduler may issue this warp at `now`.
    #[inline]
    pub fn can_issue(&self, now: Cycle) -> bool {
        self.state == WarpState::Ready && self.busy_until <= now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vacant_slot_is_inactive() {
        let w = WarpCtx::vacant();
        assert!(!w.is_active());
        assert!(!w.can_issue(0));
    }

    #[test]
    fn launch_resets_context() {
        let mut w = WarpCtx::vacant();
        w.pc = 55;
        w.outstanding_loads = 3;
        w.loop_stack.push(LoopFrame {
            start: 1,
            remaining: 2,
            iter: 4,
        });
        w.launch(2, 1, CtaCoord::from_linear(9, 4), false, 0);
        assert_eq!(w.pc, 0);
        assert_eq!(w.outstanding_loads, 0);
        assert!(w.loop_stack.is_empty());
        assert!(w.is_active());
        assert!(w.can_issue(0));
        assert_eq!(w.cta.linear, 9);
    }

    #[test]
    fn busy_gates_issue() {
        let mut w = WarpCtx::vacant();
        w.launch(0, 0, CtaCoord::from_linear(0, 1), true, 0);
        w.busy_until = 10;
        assert!(!w.can_issue(9));
        assert!(w.can_issue(10));
    }

    #[test]
    fn current_iter_tracks_innermost() {
        let mut w = WarpCtx::vacant();
        w.launch(0, 0, CtaCoord::from_linear(0, 1), false, 0);
        assert_eq!(w.current_iter(), 0);
        w.loop_stack.push(LoopFrame {
            start: 0,
            remaining: 9,
            iter: 3,
        });
        w.loop_stack.push(LoopFrame {
            start: 2,
            remaining: 2,
            iter: 7,
        });
        assert_eq!(w.current_iter(), 7);
    }
}
