//! Host probes and sample summaries, with no dependency beyond `std`.
//!
//! On-CPU time and peak resident memory come from `/proc/self`, read
//! the way `caps_gpu_sim::topo` reads `/proc/cpuinfo`: plain text, parsed
//! by hand, `None` when the file is missing or malformed.

use std::time::Instant;

/// Clock ticks per second of the time fields in `/proc/<pid>/stat`
/// (`USER_HZ`, fixed at 100 by the Linux user ABI on every architecture
/// this benchmark builds for).
const USER_HZ: f64 = 100.0;

/// On-CPU time (user + system) of every thread this process has run,
/// live or exited, in seconds. Resolution is one clock tick (10 ms).
pub fn cpu_seconds() -> Option<f64> {
    parse_stat_cpu(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    parse_vm_hwm_kib(&std::fs::read_to_string("/proc/self/status").ok()?).map(|kib| kib / 1024.0)
}

/// `utime + stime` from one `/proc/<pid>/stat` line, in seconds. The
/// command name (field 2) sits in parentheses and may itself hold spaces
/// or parentheses, so fields are counted from the last `)`.
fn parse_stat_cpu(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// The `VmHWM:` value of a `/proc/<pid>/status` text, in KiB.
fn parse_vm_hwm_kib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let value: f64 = parts.next()?.parse().ok()?;
    (parts.next()? == "kB").then_some(value)
}

/// Wall and on-CPU time of one timed section.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Process on-CPU seconds over the same interval.
    pub cpu_s: f64,
}

/// Time `f` by wall clock and by process on-CPU time.
pub fn timed<T>(f: impl FnOnce() -> T) -> Result<(T, Timed), String> {
    let cpu0 = cpu_seconds().ok_or("cannot read /proc/self/stat")?;
    let t0 = Instant::now();
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu1 = cpu_seconds().ok_or("cannot read /proc/self/stat")?;
    Ok((
        out,
        Timed {
            wall_s,
            cpu_s: cpu1 - cpu0,
        },
    ))
}

/// Percentiles a summary may report, highest last.
const PERCENTILES: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// A timing distribution reduced to the figures the benchmark reports:
/// the sample count, the median, and the highest percentile that still
/// has at least ten samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (nearest rank).
    pub p50: f64,
    /// The highest entry of [`PERCENTILES`] with at least ten samples
    /// above it.
    pub high_pct: f64,
    /// The sample at `high_pct` (nearest rank).
    pub high: f64,
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of ascending `sorted`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whether `n` samples leave at least ten beyond percentile `p`.
fn supports(n: usize, p: f64) -> bool {
    n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9
}

/// Summarize `samples`; `None` when there are too few for even a median
/// with ten samples beyond it (fewer than 20).
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let n = samples.len();
    let high_pct = PERCENTILES
        .iter()
        .copied()
        .rev()
        .find(|&p| supports(n, p))?;
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Summary {
        n,
        p50: percentile(&sorted, 50.0),
        high_pct,
        high: percentile(&sorted, high_pct),
    })
}

/// Median of a non-empty sample (mean of the middle two for even counts).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_counts_fields_from_the_last_paren() {
        // A command name with spaces and a ')' must not shift the fields.
        let line = "4242 (my (odd) prog) R 1 4242 4242 0 -1 4194304 100 0 0 0 \
                    250 50 0 0 20 0 3 0 12345 1000000 500 18446744073709551615";
        assert_eq!(parse_stat_cpu(line), Some(3.0));
        assert_eq!(parse_stat_cpu("4242 (truncated) R 1"), None);
        assert_eq!(parse_stat_cpu("no parens at all"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(2048.0));
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t 12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn live_probes_read_this_process() {
        let rss = peak_rss_mib().expect("VmHWM readable");
        assert!(rss > 0.0, "{rss}");
        let (_, t) = timed(|| {
            // Spin long enough to cross several clock ticks.
            let t0 = Instant::now();
            let mut x = 0u64;
            while t0.elapsed().as_millis() < 120 {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
            }
            x
        })
        .expect("stat readable");
        assert!(t.wall_s >= 0.12, "{t:?}");
        assert!(t.cpu_s >= 0.05 && t.cpu_s <= t.wall_s + 0.05, "{t:?}");
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn summary_reports_the_highest_percentile_with_ten_beyond() {
        let sample = |n: usize| (0..n).map(|i| i as f64).rev().collect::<Vec<_>>();
        assert_eq!(summarize(&sample(19)), None);
        let s = summarize(&sample(20)).expect("median with ten beyond");
        assert_eq!((s.n, s.high_pct), (20, 50.0));
        assert_eq!(summarize(&sample(99)).map(|s| s.high_pct), Some(50.0));
        let s = summarize(&sample(100)).expect("p90");
        assert_eq!((s.high_pct, s.p50, s.high), (90.0, 49.0, 89.0));
        assert_eq!(summarize(&sample(200)).map(|s| s.high_pct), Some(95.0));
        assert_eq!(summarize(&sample(999)).map(|s| s.high_pct), Some(95.0));
        assert_eq!(summarize(&sample(1000)).map(|s| s.high_pct), Some(99.0));
        assert_eq!(summarize(&sample(10_000)).map(|s| s.high_pct), Some(99.9));
    }
}
