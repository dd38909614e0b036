//! Event tracing as decorators.
//!
//! Downstream users debugging a prefetcher or scheduler policy need to
//! see the event stream the engine saw. Rather than threading a logger
//! through the SM, the tracers wrap the policy objects themselves:
//! [`TracingPrefetcher`] records every demand observation and every
//! generated request; [`TracingScheduler`] records warp lifecycle events
//! and issue picks. Both forward to the wrapped implementation untouched,
//! so attaching a tracer never changes simulated behaviour.

use std::sync::{Arc, Mutex};

use crate::prefetch::{DemandObservation, PrefetchRequest, Prefetcher};
use crate::sched::WarpScheduler;
use crate::types::{Addr, CtaCoord, CtaSlot, Cycle, Pc, WarpSlot};

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A warp issued a demand load.
    Demand {
        /// Cycle of the observation.
        cycle: Cycle,
        /// Load PC.
        pc: Pc,
        /// Issuing hardware warp slot.
        warp: WarpSlot,
        /// First coalesced line.
        first_line: Addr,
        /// Number of coalesced lines.
        lines: usize,
    },
    /// The engine generated a prefetch request.
    Prefetch {
        /// Load PC the prefetch predicts for.
        pc: Pc,
        /// Predicted line.
        line: Addr,
        /// Bound target warp.
        target: Option<WarpSlot>,
    },
    /// A CTA was launched into a slot.
    CtaLaunch {
        /// Hardware CTA slot.
        slot: CtaSlot,
        /// Grid coordinates.
        cta: CtaCoord,
    },
    /// A CTA completed.
    CtaComplete {
        /// Hardware CTA slot.
        slot: CtaSlot,
    },
    /// The scheduler issued a warp.
    Issue {
        /// Cycle of the pick.
        cycle: Cycle,
        /// Picked warp.
        warp: WarpSlot,
    },
    /// A warp was demoted on a long-latency dependence.
    Demote {
        /// Demoted warp.
        warp: WarpSlot,
    },
    /// A warp's data returned (re-schedulable).
    Wake {
        /// Woken warp.
        warp: WarpSlot,
    },
}

/// Shared, thread-safe event buffer.
#[derive(Debug, Clone, Default)]
pub struct TraceBuffer {
    inner: Arc<Mutex<Vec<Event>>>,
    capacity: usize,
}

impl TraceBuffer {
    /// Buffer capped at `capacity` events (older events are kept; new
    /// ones beyond the cap are dropped — the interesting part of a trace
    /// is usually its beginning).
    pub fn new(capacity: usize) -> Self {
        TraceBuffer {
            inner: Arc::new(Mutex::new(Vec::new())),
            capacity,
        }
    }

    fn push(&self, e: Event) {
        let mut v = self.inner.lock().expect("trace buffer poisoned");
        if v.len() < self.capacity {
            v.push(e);
        }
    }

    /// Snapshot of the recorded events.
    pub fn events(&self) -> Vec<Event> {
        self.inner.lock().expect("trace buffer poisoned").clone()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("trace buffer poisoned").len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Prefetcher decorator recording observations and generated requests.
pub struct TracingPrefetcher<P> {
    inner: P,
    buf: TraceBuffer,
}

impl<P: Prefetcher> TracingPrefetcher<P> {
    /// Wrap `inner`, recording into `buf`.
    pub fn new(inner: P, buf: TraceBuffer) -> Self {
        TracingPrefetcher { inner, buf }
    }
}

impl<P: Prefetcher> Prefetcher for TracingPrefetcher<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_demand(&mut self, obs: &DemandObservation<'_>, out: &mut Vec<PrefetchRequest>) {
        self.buf.push(Event::Demand {
            cycle: obs.cycle,
            pc: obs.pc,
            warp: obs.warp_slot,
            first_line: obs.lines.first().copied().unwrap_or(0),
            lines: obs.lines.len(),
        });
        let before = out.len();
        self.inner.on_demand(obs, out);
        for r in &out[before..] {
            self.buf.push(Event::Prefetch {
                pc: r.pc,
                line: r.line,
                target: r.target_warp,
            });
        }
    }

    fn on_l1_miss(&mut self, cycle: Cycle, line: Addr, out: &mut Vec<PrefetchRequest>) {
        let before = out.len();
        self.inner.on_l1_miss(cycle, line, out);
        for r in &out[before..] {
            self.buf.push(Event::Prefetch {
                pc: r.pc,
                line: r.line,
                target: r.target_warp,
            });
        }
    }

    fn on_cta_launch(&mut self, slot: CtaSlot, cta: CtaCoord) {
        self.buf.push(Event::CtaLaunch { slot, cta });
        self.inner.on_cta_launch(slot, cta);
    }

    fn on_cta_complete(&mut self, slot: CtaSlot) {
        self.buf.push(Event::CtaComplete { slot });
        self.inner.on_cta_complete(slot);
    }

    fn table_accesses(&self) -> u64 {
        self.inner.table_accesses()
    }

    fn mispredicts(&self) -> u64 {
        self.inner.mispredicts()
    }
}

/// Scheduler decorator recording issue picks and queue transitions.
///
/// It wraps a policy driven directly (an SM holds the
/// [`crate::sched::Scheduler`] enum, which has no traced variant).
pub struct TracingScheduler<S> {
    inner: S,
    buf: TraceBuffer,
}

impl<S: WarpScheduler> TracingScheduler<S> {
    /// Wrap `inner`, recording into `buf`.
    pub fn new(inner: S, buf: TraceBuffer) -> Self {
        TracingScheduler { inner, buf }
    }
}

impl<S: WarpScheduler> WarpScheduler for TracingScheduler<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_launch(&mut self, w: WarpSlot, leading: bool, group: u8) {
        self.inner.on_launch(w, leading, group);
    }

    fn on_finish(&mut self, w: WarpSlot) {
        self.inner.on_finish(w);
    }

    fn on_long_latency(&mut self, w: WarpSlot) {
        self.buf.push(Event::Demote { warp: w });
        self.inner.on_long_latency(w);
    }

    fn on_ready_again(&mut self, w: WarpSlot) {
        self.buf.push(Event::Wake { warp: w });
        self.inner.on_ready_again(w);
    }

    fn on_prefetch_fill(&mut self, w: WarpSlot) -> bool {
        self.inner.on_prefetch_fill(w)
    }

    fn on_leading_done(&mut self, w: WarpSlot) {
        self.inner.on_leading_done(w);
    }

    fn pick(&mut self, now: Cycle, can_issue: impl FnMut(WarpSlot) -> bool) -> Option<WarpSlot> {
        let picked = self.inner.pick(now, can_issue);
        if let Some(w) = picked {
            self.buf.push(Event::Issue {
                cycle: now,
                warp: w,
            });
        }
        picked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use crate::gpu::Gpu;
    use crate::isa::{AddrPattern, AffinePattern, CtaTerm, ProgramBuilder};
    use crate::kernel::Kernel;
    use crate::prefetch::NullPrefetcher;
    use crate::sched::TwoLevelScheduler;

    fn kernel() -> Kernel {
        let pat = AddrPattern::Affine(AffinePattern::dense(0, CtaTerm::Linear { pitch: 4096 }));
        Kernel::new(
            "t",
            (4, 1),
            64,
            ProgramBuilder::new().ld(pat).wait().alu(4).build(),
        )
    }

    #[test]
    fn traced_run_matches_untraced_run() {
        let cfg = GpuConfig::test_small();
        let buf = TraceBuffer::new(1 << 16);
        let b2 = buf.clone();
        let traced = {
            let factory = move |_sm: usize| -> Box<dyn Prefetcher> {
                Box::new(TracingPrefetcher::new(NullPrefetcher, b2.clone()))
            };
            Gpu::new(cfg.clone(), kernel(), &factory).run(1_000_000)
        };
        let plain = Gpu::new(cfg, kernel(), &|_| Box::new(NullPrefetcher)).run(1_000_000);
        assert_eq!(traced, plain, "tracing must not perturb simulation");
        assert!(!buf.is_empty());
    }

    #[test]
    fn demand_events_carry_the_observation() {
        let cfg = GpuConfig::test_small();
        let buf = TraceBuffer::new(1 << 16);
        let b2 = buf.clone();
        let factory = move |_sm: usize| -> Box<dyn Prefetcher> {
            Box::new(TracingPrefetcher::new(NullPrefetcher, b2.clone()))
        };
        let _ = Gpu::new(cfg, kernel(), &factory).run(1_000_000);
        let events = buf.events();
        let demands = events
            .iter()
            .filter(|e| matches!(e, Event::Demand { .. }))
            .count();
        let launches = events
            .iter()
            .filter(|e| matches!(e, Event::CtaLaunch { .. }))
            .count();
        let completes = events
            .iter()
            .filter(|e| matches!(e, Event::CtaComplete { .. }))
            .count();
        assert_eq!(demands, 8, "4 CTAs × 2 warps × 1 load");
        assert_eq!(launches, 4);
        assert_eq!(completes, 4);
    }

    #[test]
    fn scheduler_tracer_records_issue_stream() {
        let buf = TraceBuffer::new(64);
        let mut s = TracingScheduler::new(TwoLevelScheduler::new(2, false, false), buf.clone());
        s.on_launch(0, true, 0);
        s.on_launch(1, false, 0);
        let mut all = |_: WarpSlot| true;
        let _ = s.pick(5, &mut all);
        s.on_long_latency(0);
        s.on_ready_again(0);
        let events = buf.events();
        assert_eq!(
            events,
            vec![
                Event::Issue { cycle: 5, warp: 0 },
                Event::Demote { warp: 0 },
                Event::Wake { warp: 0 },
            ]
        );
    }

    #[test]
    fn buffer_capacity_is_respected() {
        let buf = TraceBuffer::new(2);
        buf.push(Event::Demote { warp: 0 });
        buf.push(Event::Demote { warp: 1 });
        buf.push(Event::Demote { warp: 2 });
        assert_eq!(buf.len(), 2, "events beyond the cap are dropped");
    }
}
