//! Property tests on the memory-system components: DRAM conservation
//! and ordering, network delivery, and partition request/reply pairing.

use caps_gpu_sim::config::GpuConfig;
use caps_gpu_sim::dram::{DramChannel, DramRequest};
use caps_gpu_sim::interconnect::{MemRequest, Network};
use caps_gpu_sim::partition::MemoryPartition;
use caps_gpu_sim::types::AccessKind;
use proptest::prelude::*;

proptest! {
    /// DRAM conservation: every read pushed eventually completes exactly
    /// once, regardless of bank/row mix; writes complete but produce no
    /// reply.
    #[test]
    fn dram_completes_every_request(
        lines in proptest::collection::vec((0u64..1 << 16, prop::bool::ANY), 1..40),
    ) {
        let cfg = GpuConfig::fermi_gtx480();
        let mut chan = DramChannel::new(&cfg);
        let mut pushed_reads = 0u64;
        let mut pushed_writes = 0u64;
        let mut done = Vec::new();
        let mut now = 0u64;
        let mut it = lines.iter();
        let mut pending: Option<(u64, bool)> = None;
        loop {
            if pending.is_none() {
                pending = it.next().map(|&(l, w)| (l * 128, w));
            }
            if let Some((line, is_write)) = pending {
                if chan.can_accept() {
                    chan.push(DramRequest {
                        line,
                        is_write,
                        is_prefetch: false,
                        partition: 0,
                        arrival: now,
                        kernel: 0,
                    });
                    if is_write {
                        pushed_writes += 1;
                    } else {
                        pushed_reads += 1;
                    }
                    pending = None;
                }
            }
            chan.step(now, &mut done);
            now += 1;
            if pending.is_none() && it.len() == 0 && chan.pending() == 0 {
                break;
            }
            prop_assert!(now < 1_000_000, "DRAM did not drain");
        }
        prop_assert_eq!(chan.reads, pushed_reads);
        prop_assert_eq!(chan.writes, pushed_writes);
        prop_assert_eq!(done.len() as u64, pushed_reads, "one completion per read");
        prop_assert_eq!(chan.row_hits + chan.row_misses, pushed_reads + pushed_writes);
    }

    /// Network delivery: every message sent arrives exactly once, in
    /// per-destination FIFO order, never earlier than the pipe latency.
    #[test]
    fn network_delivers_everything_in_order(
        msgs in proptest::collection::vec(0usize..4, 1..120),
        latency in 0u32..40,
        depth in 1usize..8,
    ) {
        let mut net: Network<(usize, usize)> = Network::new(4, latency, depth, 8);
        let mut sent: Vec<Vec<usize>> = vec![Vec::new(); 4];
        let mut got: Vec<Vec<usize>> = vec![Vec::new(); 4];
        let mut now = 0u64;
        for (seq, &dst) in msgs.iter().enumerate() {
            net.send(now, dst, (dst, seq));
            sent[dst].push(seq);
            now += 1;
        }
        let total = msgs.len();
        let mut received = 0usize;
        while received < total {
            for (d, bucket) in got.iter_mut().enumerate() {
                // Bandwidth 1 per destination per cycle.
                let link = net.link(d);
                link.step(now);
                if let Some((dst, seq)) = link.pop_one() {
                    prop_assert_eq!(dst, d, "misrouted message");
                    bucket.push(seq);
                    received += 1;
                }
            }
            now += 1;
            prop_assert!(now < 1_000_000);
        }
        prop_assert_eq!(got, sent, "per-destination FIFO order preserved");
        prop_assert_eq!(net.in_flight(), 0);
    }

    /// Partition request/reply pairing: every accepted load eventually
    /// produces exactly one reply for its SM; stores produce none.
    #[test]
    fn partition_replies_match_requests(
        reqs in proptest::collection::vec((0u64..256, 0usize..4, prop::bool::ANY), 1..50),
    ) {
        let cfg = GpuConfig::fermi_gtx480();
        let mut p = MemoryPartition::new(0, &cfg);
        let mut d = DramChannel::new(&cfg);
        let mut expected: Vec<(u64, usize)> = Vec::new();
        let mut replies: Vec<(u64, usize)> = Vec::new();
        let mut now = 0u64;
        let mut it = reqs.iter();
        let mut pending = None;
        let mut done = Vec::new();
        loop {
            if pending.is_none() {
                pending = it.next().copied();
            }
            if let Some((l, sm, is_store)) = pending {
                let kind = if is_store { AccessKind::Store } else { AccessKind::DemandLoad };
                if p.can_accept(kind) {
                    let line = l * 128;
                    p.accept(now, MemRequest { line, kind, sm, kernel: 0 });
                    if !is_store {
                        expected.push((line, sm));
                    }
                    pending = None;
                }
            }
            done.clear();
            d.step(now, &mut done);
            p.step(now, &mut d, &done);
            while let Some(r) = p.reply_out.pop() {
                replies.push((r.line, r.sm));
            }
            now += 1;
            if pending.is_none() && it.len() == 0 && p.idle() && d.pending() == 0 {
                break;
            }
            prop_assert!(now < 2_000_000, "partition did not drain");
        }
        expected.sort_unstable();
        replies.sort_unstable();
        prop_assert_eq!(replies, expected);
    }
}
