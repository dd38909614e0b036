//! GDDR5 DRAM channel with an FR-FCFS scheduler.
//!
//! Table III: 924 MHz, 6 channels, FR-FCFS with 16 scheduler-queue
//! entries, GDDR5 timing (tCL=12, tRP=12, tRC=40, tRAS=28, tRCD=12,
//! tRRD=6, tCDLR=5, tWR=12 — DRAM clocks). Timing is pre-converted into
//! core cycles at construction so the whole simulator steps in one clock
//! domain.
//!
//! FR-FCFS (first-ready, first-come-first-served) prioritizes requests
//! that hit an open row buffer over older requests that would need an
//! activation — the policy that makes DRAM throughput sensitive to the
//! spatial order of the request stream, and therefore to prefetching.

use crate::config::{DramTiming, GpuConfig};
use crate::port::{Port, PortSnapshot, Ring};
use crate::types::{Addr, Cycle, KernelId, MAX_TENANTS};

/// Effective row-buffer size per channel in bytes. A 32-bit GDDR5
/// channel built from ×4 devices opens eight 2 KB chip rows in lockstep,
/// so one activation exposes 16 KB of contiguous channel address space.
pub const ROW_BYTES: u64 = 16 * 1024;

/// A request queued at a DRAM channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramRequest {
    /// Line address being read or written.
    pub line: Addr,
    /// Write (store) vs. read (fill) — writes produce no reply.
    pub is_write: bool,
    /// Originated from a prefetch (lower scheduling priority).
    pub is_prefetch: bool,
    /// Memory partition the reply must return to.
    pub partition: usize,
    /// Arrival order stamp for FCFS tie-breaking.
    pub arrival: Cycle,
    /// Kernel context (tenant) attribution for per-tenant DRAM counters.
    pub kernel: KernelId,
}

#[derive(Debug, Clone, Copy)]
struct Bank {
    open_row: Option<u64>,
    ready_at: Cycle,
}

/// Pre-converted timing (core cycles).
#[derive(Debug, Clone, Copy)]
struct CoreTiming {
    row_hit: u32,
    row_miss: u32,
    row_closed: u32,
    burst: u32,
    write_recovery: u32,
}

impl CoreTiming {
    fn from(cfg: &GpuConfig, t: &DramTiming) -> Self {
        CoreTiming {
            // Open-row hit: CAS latency only.
            row_hit: cfg.dram_to_core(t.t_cl),
            // Row conflict: precharge + activate + CAS.
            row_miss: cfg.dram_to_core(t.t_rp + t.t_rcd + t.t_cl),
            // Closed bank: activate + CAS.
            row_closed: cfg.dram_to_core(t.t_rcd + t.t_cl),
            burst: cfg.dram_to_core(t.t_burst),
            write_recovery: cfg.dram_to_core(t.t_wr),
        }
    }
}

/// One GDDR5 channel: banks with row buffers, a bounded FR-FCFS queue,
/// and a shared data bus.
#[derive(Debug)]
pub struct DramChannel {
    /// FR-FCFS scheduler queue (bounded by `dram_queue_entries` credits;
    /// producers check [`Self::can_accept`] before pushing). Removal is
    /// order-preserving: the FCFS tie-break falls back to queue position
    /// for equal arrival stamps.
    queue: Port<DramRequest>,
    /// Bank index of each queued request, parallel to `queue`. Computed
    /// once at [`Self::push`] so the per-cycle FR-FCFS scan and the
    /// wake-time recompute never redo the row/bank arithmetic (the bank
    /// count is a runtime value, so `bank_of` costs a hardware divide).
    queue_bank: Ring<u8>,
    banks: Vec<Bank>,
    bus_free_at: Cycle,
    in_flight: Vec<(Cycle, DramRequest)>,
    timing: CoreTiming,
    /// Earliest cycle at which [`Self::step`] can act (a completion
    /// matures or a queued request's bank turns ready), so steps before
    /// it early-out without scanning the queue. Exact: recomputed from
    /// queue, banks and in-flight set after every executed step; a
    /// [`Self::push`] lowers it to the new request's bank-ready time.
    wake_at: Cycle,
    /// Row-buffer hits serviced (stats).
    pub row_hits: u64,
    /// Row activations (misses + closed-bank opens).
    pub row_misses: u64,
    /// Read requests completed.
    pub reads: u64,
    /// Write requests completed.
    pub writes: u64,
    /// Reads completed per kernel context (tenant attribution).
    pub reads_by_kernel: [u64; MAX_TENANTS],
    /// Writes completed per kernel context.
    pub writes_by_kernel: [u64; MAX_TENANTS],
}

impl DramChannel {
    /// Build a channel per `cfg`.
    pub fn new(cfg: &GpuConfig) -> Self {
        DramChannel {
            queue: Port::new(cfg.dram_queue_entries),
            queue_bank: Ring::with_capacity(cfg.dram_queue_entries),
            banks: vec![
                Bank {
                    open_row: None,
                    ready_at: 0
                };
                cfg.dram_banks
            ],
            bus_free_at: 0,
            in_flight: Vec::with_capacity(cfg.dram_queue_entries * 2),
            timing: CoreTiming::from(cfg, &cfg.dram_timing),
            wake_at: 0,
            row_hits: 0,
            row_misses: 0,
            reads: 0,
            writes: 0,
            reads_by_kernel: [0; MAX_TENANTS],
            writes_by_kernel: [0; MAX_TENANTS],
        }
    }

    /// Zero only the per-kernel attribution counters (a tenant run
    /// starts a fresh attribution window; machine-wide counters
    /// accumulate).
    pub fn reset_kernel_counters(&mut self) {
        self.reads_by_kernel = [0; MAX_TENANTS];
        self.writes_by_kernel = [0; MAX_TENANTS];
    }

    /// Whether the scheduler queue can take another request (a credit is
    /// free on the queue port).
    #[inline]
    pub fn can_accept(&self) -> bool {
        self.queue.credits() > 0
    }

    /// Requests waiting or in service.
    #[inline]
    pub fn pending(&self) -> usize {
        self.queue.len() + self.in_flight.len()
    }

    /// Enqueue a request; caller must have checked [`Self::can_accept`].
    pub fn push(&mut self, req: DramRequest) {
        debug_assert!(self.can_accept(), "DRAM queue overflow");
        let bank = self.bank_of(req.line);
        let ready = self.banks[bank].ready_at;
        if ready < self.wake_at {
            self.wake_at = ready;
        }
        self.queue_bank.push_back(bank as u8);
        self.queue.push(req);
    }

    /// Occupancy/stall counters for the scheduler queue. Host-side
    /// reporting only — not part of the bit-identity contract.
    pub fn port_snapshot(&self) -> PortSnapshot {
        self.queue.snapshot()
    }

    #[inline]
    fn bank_of(&self, line: Addr) -> usize {
        ((line / ROW_BYTES) as usize) % self.banks.len()
    }

    #[inline]
    fn row_of(line: Addr) -> u64 {
        line / ROW_BYTES
    }

    /// Requests waiting in the FR-FCFS queue (not yet issued).
    #[inline]
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// The channel's wake cycle: [`Self::step`] is a no-op before it
    /// (`Cycle::MAX` when the channel is empty).
    #[inline]
    pub fn wake_at(&self) -> Cycle {
        self.wake_at
    }

    /// Advance one core cycle: possibly start one request (FR-FCFS pick)
    /// and drain completions into `done`.
    pub fn step(&mut self, now: Cycle, done: &mut Vec<DramRequest>) {
        if now < self.wake_at {
            return;
        }
        self.step_inner(now, done);
        // Next cycle anything can happen: the earliest completion or
        // bank-ready time, clamped to the future (a bank ready now means
        // the next step may issue, so it must run at `now + 1`).
        let completion = self.in_flight.iter().map(|&(t, _)| t).min();
        let bank_ready = self
            .queue_bank
            .iter()
            .map(|&b| self.banks[b as usize].ready_at)
            .min();
        let earliest = completion
            .unwrap_or(Cycle::MAX)
            .min(bank_ready.unwrap_or(Cycle::MAX));
        self.wake_at = earliest.max(now + 1);
    }

    fn step_inner(&mut self, now: Cycle, done: &mut Vec<DramRequest>) {
        // Completions first so their banks free this cycle.
        let mut i = 0;
        while i < self.in_flight.len() {
            if self.in_flight[i].0 <= now {
                let (_, req) = self.in_flight.swap_remove(i);
                if req.is_write {
                    self.writes += 1;
                    self.writes_by_kernel[req.kernel as usize] += 1;
                } else {
                    self.reads += 1;
                    self.reads_by_kernel[req.kernel as usize] += 1;
                    done.push(req);
                }
            } else {
                i += 1;
            }
        }

        if self.queue.is_empty() {
            return;
        }

        // FR-FCFS: among requests whose bank is ready, prefer row hits,
        // then demand over prefetch, then older arrivals. One command
        // issued per cycle.
        let mut best: Option<(bool, bool, Cycle, usize)> = None; // (hit, demand, arrival, idx)
        for (idx, (req, &bank)) in self.queue.iter().zip(self.queue_bank.iter()).enumerate() {
            let bank = bank as usize;
            if self.banks[bank].ready_at > now {
                continue;
            }
            let row_hit = self.banks[bank].open_row == Some(Self::row_of(req.line));
            let demand = !req.is_prefetch;
            let better = match best {
                None => true,
                Some((bh, bd, ba, _)) => {
                    (row_hit, demand, std::cmp::Reverse(req.arrival))
                        > (bh, bd, std::cmp::Reverse(ba))
                }
            };
            if better {
                best = Some((row_hit, demand, req.arrival, idx));
            }
        }

        let Some((row_hit, _, _, idx)) = best else {
            return;
        };
        // Order-preserving removal: FCFS tie-breaks fall to queue order.
        let req = self.queue.remove(idx);
        let bank_idx = self.queue_bank.remove(idx) as usize;
        let row = Self::row_of(req.line);

        let access = if row_hit {
            self.row_hits += 1;
            self.timing.row_hit
        } else if self.banks[bank_idx].open_row.is_some() {
            self.row_misses += 1;
            self.timing.row_miss
        } else {
            self.row_misses += 1;
            self.timing.row_closed
        };

        // The data burst occupies the shared bus at the tail of the
        // access; bank-level parallelism overlaps the access phases.
        let data_start = (now + access as Cycle).max(self.bus_free_at);
        let data_at = data_start + self.timing.burst as Cycle;
        self.bus_free_at = data_at;
        let recovery = if req.is_write {
            self.timing.write_recovery as Cycle
        } else {
            0
        };
        self.banks[bank_idx].ready_at = data_at + recovery;
        self.banks[bank_idx].open_row = Some(row);
        self.in_flight.push((data_at, req));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chan() -> DramChannel {
        DramChannel::new(&GpuConfig::fermi_gtx480())
    }

    fn rd(line: Addr, arrival: Cycle) -> DramRequest {
        DramRequest {
            line,
            is_write: false,
            is_prefetch: false,
            partition: 0,
            arrival,
            kernel: 0,
        }
    }

    fn run_until_done(c: &mut DramChannel, mut now: Cycle, n: usize) -> Vec<(Cycle, DramRequest)> {
        let mut got = Vec::new();
        let mut scratch = Vec::new();
        while got.len() < n {
            c.step(now, &mut scratch);
            for r in scratch.drain(..) {
                got.push((now, r));
            }
            now += 1;
            assert!(now < 1_000_000, "DRAM test did not converge");
        }
        got
    }

    #[test]
    fn single_read_completes_with_closed_bank_latency() {
        let mut c = chan();
        c.push(rd(0, 0));
        let done = run_until_done(&mut c, 0, 1);
        // tRCD+tCL = 24 DRAM ≈ 37 core, + burst 7 core = 44.
        let expect = GpuConfig::fermi_gtx480().dram_to_core(24) as u64
            + GpuConfig::fermi_gtx480().dram_to_core(4) as u64;
        assert_eq!(done[0].0, expect);
        assert_eq!(c.reads, 1);
        assert_eq!(c.row_misses, 1);
    }

    #[test]
    fn same_row_second_access_is_a_row_hit() {
        let mut c = chan();
        c.push(rd(0, 0));
        c.push(rd(128, 1));
        let _ = run_until_done(&mut c, 0, 2);
        assert_eq!(c.row_hits, 1);
        assert_eq!(c.row_misses, 1);
    }

    #[test]
    fn fr_fcfs_prefers_row_hit_over_older_conflict() {
        let mut c = chan();
        // Open row 0 on bank 0.
        c.push(rd(0, 0));
        let _ = run_until_done(&mut c, 0, 1);
        // Now: an older request that conflicts (row 8 on bank 0) and a
        // younger row hit (row 0). FR-FCFS must service the hit first.
        c.push(rd(8 * ROW_BYTES, 10)); // bank 0, different row
        c.push(rd(64, 11)); // bank 0, open row
        let done = run_until_done(&mut c, 100, 2);
        assert_eq!(done[0].1.line, 64, "row hit should be serviced first");
        assert_eq!(done[1].1.line, 8 * ROW_BYTES);
    }

    #[test]
    fn writes_complete_without_reply() {
        let mut c = chan();
        c.push(DramRequest {
            line: 0,
            is_write: true,
            is_prefetch: false,
            partition: 0,
            arrival: 0,
            kernel: 0,
        });
        let mut done = Vec::new();
        for now in 0..2000 {
            c.step(now, &mut done);
        }
        assert!(done.is_empty());
        assert_eq!(c.writes, 1);
    }

    #[test]
    fn queue_capacity_is_bounded() {
        let mut c = chan();
        for i in 0..16 {
            assert!(c.can_accept());
            c.push(rd(i * 4096, i));
        }
        assert!(!c.can_accept());
    }

    #[test]
    fn different_banks_interleave() {
        let mut c = chan();
        // Two requests on different banks: bank-level parallelism means
        // both finish sooner than strictly serialized access latencies.
        c.push(rd(0, 0));
        c.push(rd(ROW_BYTES, 1)); // next bank
        let done = run_until_done(&mut c, 0, 2);
        let cfg = GpuConfig::fermi_gtx480();
        let serial = 2 * (cfg.dram_to_core(24) as u64 + cfg.dram_to_core(4) as u64);
        assert!(
            done[1].0 < serial,
            "bank parallelism should beat serial: {} vs {serial}",
            done[1].0
        );
    }

    #[test]
    fn wake_at_names_the_next_cycle_step_can_act() {
        let mut c = chan();
        let mut done = Vec::new();
        c.step(0, &mut done);
        assert_eq!(c.wake_at(), Cycle::MAX, "empty channel sleeps");
        c.push(rd(0, 0));
        assert_eq!(c.wake_at(), 0, "a push onto a ready bank wakes it");
        assert_eq!(c.queued(), 1);
        c.step(0, &mut done); // command issued, completion scheduled
        assert!(done.is_empty());
        assert_eq!(c.queued(), 0);
        // In flight only: the channel sleeps until the data returns.
        let t = c.wake_at();
        assert!(t > 1 && t < Cycle::MAX);
        c.step(t - 1, &mut done);
        assert!(done.is_empty(), "a step before the wake cycle is a no-op");
        c.step(t, &mut done);
        assert_eq!(done.len(), 1);
        assert_eq!(c.wake_at(), Cycle::MAX);
    }

    #[test]
    fn pending_tracks_queue_and_flight() {
        let mut c = chan();
        c.push(rd(0, 0));
        assert_eq!(c.pending(), 1);
        let mut d = Vec::new();
        c.step(0, &mut d);
        assert_eq!(c.pending(), 1); // moved to in-flight
        let _ = run_until_done(&mut c, 1, 1);
        assert_eq!(c.pending(), 0);
    }
}
