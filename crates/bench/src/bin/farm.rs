//! Sweep-farm driver: run the standard sensitivity sweep through the
//! work-stealing farm and report cache/dedup counters.
//!
//! ```text
//! farm [--small] [--jobs N] [--cache-dir PATH] [--cache rw|ro|off]
//!      [--workloads A,B,..] [--out PATH] [--stats PATH] [--prune-against PATH]
//! ```
//!
//! It runs every `standard_axes()` sensitivity axis over the selected
//! workloads on one farm, prints the sweep tables, and optionally writes
//! the sweep summary (`--out`, stable JSON suitable for byte-comparison
//! across passes) and the farm/cache counters (`--stats`). Two
//! invocations sharing a `--cache-dir` exercise the persistent path: the
//! second pass should resolve (almost) entirely from disk — the CI smoke
//! job asserts a ≥90% hit rate and byte-identical sweep output.
//!
//! `--prune-against PATH` loads a results archive — a result-cache
//! directory, or any JSON carrying job keys such as a previous `--stats`
//! file — and skips every sweep job whose content key it covers
//! (reported as `pruned`; pruned sweep points render as `NaN` with a
//! `(pruned)` label). The `job_keys` array written by `--stats` makes
//! any run's output usable as such an archive.
//!
//! The flag parser, the axis driver and the output renderers are shared
//! with `simctl` (the simulation-service client) via `caps_bench::cli`,
//! so `farm --out` and `simctl --out` are byte-comparable.

use caps_bench::cli::{sweep_and_report, Args};
use caps_metrics::Farm;
use caps_workloads::all_workloads;

fn main() {
    let usage = format!(
        "usage: farm [--small] [--jobs N] [--cache-dir PATH] [--cache rw|ro|off]\n\
         \x20           [--workloads A,B,..] [--out PATH] [--stats PATH] [--prune-against PATH]\n\
         BENCH: {}",
        all_workloads()
            .iter()
            .map(|w| w.abbr())
            .collect::<Vec<_>>()
            .join(" ")
    );
    let args = Args::parse(
        &usage,
        &["--small"],
        &[
            "--jobs",
            "--cache",
            "--cache-dir",
            "--workloads",
            "--out",
            "--stats",
            "--prune-against",
        ],
    );
    args.positional(0);
    let cache = args.cache();
    let farm = Farm::new(&cache, args.jobs());
    let prune = args.prune();
    let source = format!("cache dir {}", cache.dir().display());
    sweep_and_report(&args, &cache, &source, |jobs| farm.run_pruned(jobs, &prune));
}
