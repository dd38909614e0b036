//! The one command-line parser behind the five binaries (`run`,
//! `run_all`, `farm`, `simd`, `simctl`), and the sweep driver that
//! `farm` and `simctl` share.
//!
//! Each binary declares its switches and value flags. An unknown flag,
//! a value flag without its value, or a malformed value prints the
//! problem and the binary's usage text and exits 2, before anything is
//! simulated or written. `--help`/`-h` prints the usage text and exits 0.
//!
//! `farm` (in-process) and `simctl` (through a simulation server) run
//! the same axis driver, [`run_axes`], and differ only in the batch
//! executor they hand it: a [`Farm`], or a [`Served`] connection. Their
//! `--out` summaries are therefore **byte-identical**; the CI smoke jobs
//! `cmp` them.

use std::fmt::Display;
use std::io;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::Instant;

use caps_json::{obj, Value};
use caps_metrics::cache::{default_cache_dir, default_cache_max_bytes};
use caps_metrics::{
    standard_axes, sweep_jobs, sweep_result, CacheMode, Engine, Farm, FarmJob, FarmStats, PruneSet,
    ResultCache, RunRecord, SweepResult, Table,
};
use caps_service::Client;
use caps_workloads::{all_workloads, Scale, Workload};

/// A binary's parsed command line.
pub struct Args {
    usage: String,
    flags: Vec<(String, Option<String>)>,
    positional: Vec<String>,
}

impl Args {
    /// Parse this process's arguments: `switches` take no value,
    /// `options` take exactly one. Exits 0 after printing `usage` for
    /// `--help`/`-h`. Exits 2 with the problem and `usage` on an unknown
    /// flag or an option without its value; a value that itself looks
    /// like a flag (`--out --small`) counts as missing.
    pub fn parse(usage: &str, switches: &[&str], options: &[&str]) -> Args {
        let mut args = Args {
            usage: usage.to_string(),
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut argv = std::env::args().skip(1);
        while let Some(arg) = argv.next() {
            if arg == "--help" || arg == "-h" {
                println!("{usage}");
                std::process::exit(0);
            } else if !arg.starts_with('-') {
                args.positional.push(arg);
            } else if switches.contains(&arg.as_str()) {
                args.flags.push((arg, None));
            } else if !options.contains(&arg.as_str()) {
                args.fail(format!("unknown flag {arg}"));
            } else {
                match argv.next() {
                    Some(value) if !value.starts_with("--") => args.flags.push((arg, Some(value))),
                    _ => args.fail(format!("{arg} requires a value")),
                }
            }
        }
        args
    }

    /// Print `why` and the usage text, then exit 2.
    pub fn fail(&self, why: impl Display) -> ! {
        eprintln!("{why}\n{}", self.usage);
        std::process::exit(2);
    }

    /// Whether switch `name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == name)
    }

    /// The value of option `name`, if given.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(f, _)| f == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// The value of option `name` as a non-negative integer, if given.
    pub fn count<T: FromStr>(&self, name: &str) -> Option<T> {
        self.value(name).map(|v| {
            v.parse().unwrap_or_else(|_| {
                self.fail(format!("{name} requires a non-negative integer, got {v:?}"))
            })
        })
    }

    /// The arguments that are not flags or flag values, in order; any
    /// count other than `n` fails.
    pub fn positional(&self, n: usize) -> &[String] {
        match self.positional.get(n) {
            Some(extra) => self.fail(format!("unexpected argument {extra:?}")),
            None if self.positional.len() < n => self.fail(format!(
                "expected {n} arguments, got {}",
                self.positional.len()
            )),
            None => &self.positional,
        }
    }

    /// `--small` selects the reduced kernels; default is paper scale.
    pub fn scale(&self) -> Scale {
        if self.flag("--small") {
            Scale::Small
        } else {
            Scale::Full
        }
    }

    /// `--workloads A,B,..` (default: the whole suite).
    pub fn workloads(&self) -> Vec<Workload> {
        match self.value("--workloads") {
            Some(list) => crate::parse_workload_list(list)
                .unwrap_or_else(|e| self.fail(format!("{e} (in --workloads)"))),
            None => all_workloads(),
        }
    }

    /// `--jobs N` worker threads (default: `available_parallelism`).
    pub fn jobs(&self) -> usize {
        match self.count::<usize>("--jobs") {
            Some(0) => self.fail("--jobs requires a positive integer"),
            Some(n) => n,
            None => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
        }
    }

    /// `--prune-against PATH`: load a results archive (cache directory or
    /// any JSON carrying job keys) whose covered points are skipped.
    pub fn prune(&self) -> PruneSet {
        match self.value("--prune-against") {
            Some(path) => {
                let set = PruneSet::load(Path::new(path))
                    .unwrap_or_else(|e| self.fail(format!("--prune-against {path}: {e}")));
                eprintln!("pruning against {path}: {} known job keys", set.len());
                set
            }
            None => PruneSet::new(),
        }
    }

    /// The result cache named by `--cache rw|ro|off` (default `rw`),
    /// `--cache-dir PATH` (default `GPU_SIM_CACHE_DIR`, else
    /// `.sim-cache`) and `--max-cache-mb N` (0 = unbounded; default
    /// `GPU_SIM_CACHE_MAX_MB`).
    pub fn cache(&self) -> ResultCache {
        let mode = match self.value("--cache") {
            None | Some("rw") => CacheMode::ReadWrite,
            Some("ro") => CacheMode::ReadOnly,
            Some("off") => CacheMode::Off,
            Some(other) => self.fail(format!("unknown cache mode {other:?} (rw|ro|off)")),
        };
        let dir = self
            .value("--cache-dir")
            .map_or_else(default_cache_dir, PathBuf::from);
        let max_bytes = match self.count::<u64>("--max-cache-mb") {
            Some(0) => None,
            Some(mb) => Some(mb.saturating_mul(1024 * 1024)),
            None => default_cache_max_bytes(),
        };
        ResultCache::new(mode, dir).with_max_bytes(max_bytes)
    }

    /// `--socket PATH` (default `.sim-service.sock`).
    pub fn socket(&self) -> PathBuf {
        PathBuf::from(self.value("--socket").unwrap_or(".sim-service.sock"))
    }
}

/// What a batch executor returns for one batch: records index-aligned
/// with the jobs (`None` for a pruned job) and the batch's counters.
pub type Batch = (Vec<Option<RunRecord>>, FarmStats);

/// Run every standard axis over `workloads`, each axis as one batch
/// handed to `exec`. Returns the sweep summaries, the summed batch
/// counters, and the submitted job content keys (pruned ones included)
/// so the run's own output can serve as a future `--prune-against`
/// archive.
pub fn run_axes(
    workloads: &[Workload],
    scale: Scale,
    mut exec: impl FnMut(&[FarmJob]) -> Batch,
) -> (Vec<SweepResult>, FarmStats, Vec<u128>) {
    let mut total = FarmStats::default();
    let mut results = Vec::new();
    let mut job_keys = Vec::new();
    for (axis, points) in standard_axes() {
        let jobs = sweep_jobs(&points, workloads, Engine::Caps, scale);
        job_keys.extend(jobs.iter().map(FarmJob::digest));
        let (records, stats) = exec(&jobs);
        total += stats;
        results.push(sweep_result(&axis, &points, &records));
    }
    job_keys.sort_unstable();
    job_keys.dedup();
    (results, total, job_keys)
}

/// Run the standard sweep over `--workloads` at the `--small` or full
/// scale through `exec`, then report it: the speedup tables on stdout,
/// the counters on stderr (ending in `source`, where the results came
/// from), and the `--out` summary and `--stats` report if asked.
pub fn sweep_and_report(
    args: &Args,
    cache: &ResultCache,
    source: &str,
    exec: impl FnMut(&[FarmJob]) -> Batch,
) {
    let t0 = Instant::now();
    let (results, stats, job_keys) = run_axes(&args.workloads(), args.scale(), exec);
    let seconds = t0.elapsed().as_secs_f64();
    print_tables(&results);
    let hit_rate = stats.hit_rate() * 100.0;
    let counters = counters(seconds, &stats);
    eprintln!("{counters}  (hit rate {hit_rate:.1}%, {source})");
    if let Some(out) = args.value("--out") {
        std::fs::write(out, sweep_summary_json(&results))
            .unwrap_or_else(|e| panic!("write {out}: {e}"));
        println!("wrote {out}");
    }
    if let Some(path) = args.value("--stats") {
        let mut doc = stats_json(&stats, cache, seconds, &job_keys);
        if let Value::Obj(fields) = &mut doc {
            fields.insert(0, ("host".to_string(), crate::host_json(args.jobs())));
        }
        std::fs::write(path, doc.pretty()).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
    }
}

/// One line of a sweep's wall time and batch counters.
pub fn counters(seconds: f64, s: &FarmStats) -> String {
    format!(
        "{seconds:.3}s  jobs={} sims={} mem={} disk={} dedup={} pruned={}",
        s.jobs, s.sims, s.mem_hits, s.disk_hits, s.dedup, s.pruned
    )
}

/// The batch executor `simctl` hands to [`run_axes`]: each batch goes to
/// a simulation server over one [`Client`] connection, minus the jobs
/// the caller's own prune set covers (the server applies its prune set
/// on top). When the server is unreachable or a batch fails, it warns
/// once and runs that batch and every later one on a local farm, which
/// produces the same records.
pub struct Served<'c> {
    socket: PathBuf,
    client: Option<Client>,
    fallback: Farm<'c>,
    verbose: bool,
}

impl<'c> Served<'c> {
    /// Connect to the server at `socket`, keeping `fallback` for when it
    /// fails. With `verbose`, each record is printed to stderr as it
    /// arrives off the wire.
    pub fn connect(socket: &Path, fallback: Farm<'c>, verbose: bool) -> Self {
        let mut served = Served {
            socket: socket.to_path_buf(),
            client: None,
            fallback,
            verbose,
        };
        match Client::connect(socket) {
            Ok(client) => served.client = Some(client),
            Err(e) => served.warn(&e),
        }
        served
    }

    /// Execute one batch, skipping the jobs `prune` covers.
    pub fn run(&mut self, jobs: &[FarmJob], prune: &PruneSet) -> Batch {
        if let Some(client) = &mut self.client {
            match submit(client, jobs, prune, self.verbose) {
                Ok(batch) => return batch,
                Err(e) => {
                    self.client = None;
                    self.warn(&e);
                }
            }
        }
        self.fallback.run_pruned(jobs, prune)
    }

    fn warn(&self, e: &io::Error) {
        eprintln!(
            "{}: {e}; falling back to local execution",
            self.socket.display()
        );
    }
}

/// Send the jobs `prune` does not cover and map the reply back onto
/// `jobs`.
fn submit(
    client: &mut Client,
    jobs: &[FarmJob],
    prune: &PruneSet,
    verbose: bool,
) -> io::Result<Batch> {
    let sent: Vec<usize> = (0..jobs.len())
        .filter(|&i| !prune.contains(jobs[i].digest()))
        .collect();
    let batch: Vec<FarmJob> = sent.iter().map(|&i| jobs[i].clone()).collect();
    let (records, mut stats) = client.submit_streaming(&batch, &mut |i, rec| {
        if verbose {
            eprintln!(
                "record[{}]: {} {} ({} cycles)",
                sent[i], rec.workload, rec.engine, rec.stats.cycles
            );
        }
    })?;
    let mut out = vec![None; jobs.len()];
    for (&i, record) in sent.iter().zip(records) {
        out[i] = record;
    }
    stats.jobs = jobs.len() as u64;
    stats.pruned += (jobs.len() - sent.len()) as u64;
    Ok((out, stats))
}

/// Render each axis as an ASCII speedup table on stdout.
pub fn print_tables(results: &[SweepResult]) {
    for r in results {
        let mut t = Table::new(&["point", "CAPS speedup"]);
        for (label, s) in r.labels.iter().zip(&r.speedup) {
            t.row(vec![label.clone(), format!("{s:.3}")]);
        }
        println!("{}\n{}", r.axis, t.render());
    }
}

/// Stable JSON for the sweep summaries — byte-comparable across passes,
/// processes, and the service socket (floats are shortest-roundtrip).
pub fn sweep_summary_json(results: &[SweepResult]) -> String {
    let axes: Vec<Value> = results
        .iter()
        .map(|r| {
            obj(vec![
                ("axis", Value::Str(r.axis.clone())),
                (
                    "labels",
                    Value::Arr(r.labels.iter().map(|l| Value::Str(l.clone())).collect()),
                ),
                (
                    "speedup",
                    Value::Arr(r.speedup.iter().map(|&s| Value::Float(s)).collect()),
                ),
            ])
        })
        .collect();
    Value::Arr(axes).pretty()
}

/// Farm/cache counter report, including the batch's `job_keys` so the
/// file doubles as a `--prune-against` archive.
pub fn stats_json(
    stats: &FarmStats,
    cache: &ResultCache,
    seconds: f64,
    job_keys: &[u128],
) -> Value {
    let c = cache.counters();
    obj(vec![
        ("jobs", Value::UInt(stats.jobs)),
        ("sims", Value::UInt(stats.sims)),
        ("mem_hits", Value::UInt(stats.mem_hits)),
        ("disk_hits", Value::UInt(stats.disk_hits)),
        ("hits", Value::UInt(stats.hits())),
        ("dedup", Value::UInt(stats.dedup)),
        ("pruned", Value::UInt(stats.pruned)),
        ("hit_rate", Value::Float(stats.hit_rate())),
        ("seconds", Value::Float(seconds)),
        ("cache_stores", Value::UInt(c.stores)),
        ("cache_store_errors", Value::UInt(c.store_errors)),
        ("cache_misses", Value::UInt(c.misses)),
        // The batch's content keys: feed this file (or any JSON
        // containing it) back via --prune-against to skip every job it
        // covers.
        (
            "job_keys",
            Value::Arr(
                job_keys
                    .iter()
                    .map(|k| Value::Str(format!("{k:032x}")))
                    .collect(),
            ),
        ),
    ])
}
