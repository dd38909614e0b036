//! Sweep-farm driver and benchmark: run the standard sensitivity sweep
//! through the work-stealing farm and report cache/dedup counters.
//!
//! ```text
//! farm [--small] [--jobs N] [--cache-dir PATH] [--cache rw|ro|off]
//!      [--workloads A,B,..] [--out PATH] [--stats PATH]
//! farm --bench [--small] [--jobs N] [--workloads A,B,..] [--out PATH]
//! ```
//!
//! The default mode runs every `standard_axes()` sensitivity axis over
//! the selected workloads on one farm, prints the sweep tables, and
//! optionally writes the sweep summary (`--out`, stable JSON suitable
//! for byte-comparison across passes) and the farm/cache counters
//! (`--stats`). Two invocations sharing a `--cache-dir` exercise the
//! persistent path: the second pass should resolve (almost) entirely
//! from disk — the CI smoke job asserts a ≥90% hit rate and
//! byte-identical sweep output.
//!
//! `--bench` times three passes of the same sweep against a fresh
//! throwaway cache directory — cold (simulating + storing), warm from
//! disk (in-memory index dropped), warm from memory — and writes
//! `BENCH_farm.json` (override with `--out`) recording the timings,
//! speedups, per-pass counters, and a `host` header describing the
//! machine (cores, SMT, model, pinning, oversubscription).
//!
//! `--prune-against PATH` loads a results archive — a result-cache
//! directory, or any JSON carrying job keys such as a previous `--stats`
//! file or `BENCH_farm.json` — and skips every sweep job whose content
//! key it covers (reported as `pruned`; pruned sweep points render as
//! `NaN` with a `(pruned)` label). The `job_keys` array written by
//! `--stats` and per-pass bench entries makes any run's output usable
//! as such an archive.
//!
//! The flag parser, the axis driver and the output renderers are shared
//! with `simctl` (the simulation-service client) via `caps_bench::cli`,
//! so `farm --out` and `simctl --out` are byte-comparable.

use std::time::Instant;

use caps_bench::cli::{
    counters, print_tables, run_axes, stats_json, sweep_and_report, sweep_summary_json, Args,
};
use caps_json::{obj, Value};
use caps_metrics::{CacheMode, Farm, ResultCache};
use caps_workloads::{all_workloads, Scale};

fn bench(args: &Args) {
    let scale = args.scale();
    let workloads = args.workloads();
    let jobs = args.jobs();
    let out = args.value("--out").unwrap_or("BENCH_farm.json");
    let prune = args.prune();

    // A throwaway cache directory so the cold pass is genuinely cold and
    // the run leaves no state behind.
    let dir = std::env::temp_dir().join(format!("caps-farm-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ResultCache::new(CacheMode::ReadWrite, &dir);
    let farm = Farm::new(&cache, jobs);

    let mut passes = Vec::new();
    let mut seconds = [0.0f64; 3];
    let mut cold_summary = String::new();
    for (pi, pass) in ["cold", "warm_disk", "warm_mem"].iter().enumerate() {
        if *pass == "warm_disk" {
            // Forget the in-memory index so every hit must parse disk.
            cache.drop_index();
        }
        let t0 = Instant::now();
        let (results, stats, job_keys) =
            run_axes(&workloads, scale, |batch| farm.run_pruned(batch, &prune));
        seconds[pi] = t0.elapsed().as_secs_f64();
        let summary = sweep_summary_json(&results);
        if pi == 0 {
            cold_summary = summary;
            print_tables(&results);
        } else {
            assert_eq!(
                summary, cold_summary,
                "{pass} pass produced different sweep output than the cold pass"
            );
        }
        eprintln!("{pass}: {}", counters(seconds[pi], &stats));
        let mut entry = stats_json(&stats, &cache, seconds[pi], &job_keys);
        if let Value::Obj(fields) = &mut entry {
            fields.insert(0, ("pass".to_string(), Value::Str(pass.to_string())));
        }
        passes.push(entry);
    }
    let _ = std::fs::remove_dir_all(&dir);

    let scale_str = if scale == Scale::Small { "small" } else { "full" };
    let doc = obj(vec![
        ("bench", Value::Str("sweep_farm".to_string())),
        ("host", caps_bench::host_json(jobs)),
        (
            "timing",
            Value::Str(
                "standard_axes sweep, three passes on one farm: cold, warm from disk \
                 (index dropped), warm from memory"
                    .to_string(),
            ),
        ),
        ("scale", Value::Str(scale_str.to_string())),
        (
            "workloads",
            Value::Arr(
                workloads
                    .iter()
                    .map(|w| Value::Str(w.abbr().to_string()))
                    .collect(),
            ),
        ),
        ("farm_workers", Value::UInt(jobs as u64)),
        ("warm_disk_speedup", Value::Float(seconds[0] / seconds[1])),
        ("warm_mem_speedup", Value::Float(seconds[0] / seconds[2])),
        ("passes", Value::Arr(passes)),
    ]);
    std::fs::write(out, doc.pretty()).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!(
        "\nwrote {out} (warm-from-disk {:.1}x, warm-from-memory {:.1}x)",
        seconds[0] / seconds[1],
        seconds[0] / seconds[2]
    );
}

fn main() {
    let usage = format!(
        "usage: farm [--small] [--jobs N] [--cache-dir PATH] [--cache rw|ro|off]\n\
         \x20           [--workloads A,B,..] [--out PATH] [--stats PATH] [--prune-against PATH]\n\
         \x20      farm --bench [--small] [--jobs N] [--workloads A,B,..] [--out PATH]\n\
         \x20           [--prune-against PATH]\n\
         BENCH: {}",
        all_workloads()
            .iter()
            .map(|w| w.abbr())
            .collect::<Vec<_>>()
            .join(" ")
    );
    let args = Args::parse(
        &usage,
        &["--small", "--bench"],
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
    if args.flag("--bench") {
        bench(&args);
        return;
    }
    let cache = args.cache();
    let farm = Farm::new(&cache, args.jobs());
    let prune = args.prune();
    let source = format!("cache dir {}", cache.dir().display());
    sweep_and_report(&args, &cache, &source, |jobs| farm.run_pruned(jobs, &prune));
}
