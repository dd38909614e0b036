//! The sweep farm: a work-stealing run service over whole simulations.
//!
//! Whole runs are embarrassingly parallel (and on this host parallelize
//! far better than intra-simulation threading), so the farm schedules at
//! run granularity: a batch of heterogeneous [`FarmJob`]s is drained by
//! a pool of workers stealing jobs off a shared atomic index, and every
//! job resolves through three tiers:
//!
//! 1. **Submission dedup** — jobs are keyed by [`job_digest`]; a job
//!    whose content key already appears earlier in the batch never
//!    reaches a worker. It attaches to the first occurrence and receives
//!    a clone of its record, so overlapping sweep axes that repeat a
//!    `(config, kernel, engine)` point cost one simulation, not N.
//!    Dedup is deterministic: it depends only on batch content, never on
//!    worker timing or cache mode.
//! 2. **Result cache** ([`ResultCache`]) — content-addressed lookups;
//!    hits stream back immediately without simulating.
//! 3. **Simulation** — [`run_one_with_opts`], after which the record is
//!    published to the cache.
//!
//! Results are collected over a channel on the submitting thread (no
//! per-slot locks) and returned index-aligned with the input batch;
//! [`Farm::run_streaming`] additionally delivers each `(index, record)`
//! to a callback the moment it completes, in completion order.
//!
//! [`run_matrix`](crate::harness::run_matrix) and
//! [`sweep`](crate::sweep::sweep) are thin clients of this module, so
//! every figure renderer and the bench harness inherit caching and dedup
//! without code changes.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;

use crate::cache::{job_digest, CacheTier, ResultCache};
use crate::harness::{run_one_with_opts, RunOpts, RunRecord, RunSpec};

/// A set of job content keys that have already been computed elsewhere
/// — a previous sweep's result archive, another machine's cache
/// directory — used to skip resubmitting those points entirely.
///
/// Unlike the result cache (which still *answers* for a hit), a pruned
/// job produces no record at all: the caller asked "run whatever this
/// archive doesn't already cover".
#[derive(Debug, Clone, Default)]
pub struct PruneSet {
    keys: HashSet<u128>,
}

impl PruneSet {
    /// An empty set (prunes nothing).
    pub fn new() -> Self {
        PruneSet::default()
    }

    /// Add one content key.
    pub fn insert(&mut self, key: u128) {
        self.keys.insert(key);
    }

    /// Whether `key` is covered by the archive.
    pub fn contains(&self, key: u128) -> bool {
        self.keys.contains(&key)
    }

    /// Number of keys loaded.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Iterate the loaded keys (arbitrary order) — the exchange format
    /// the simulation service's `prune` request carries over the wire.
    pub fn keys(&self) -> impl Iterator<Item = u128> + '_ {
        self.keys.iter().copied()
    }

    /// True when the set prunes nothing.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Load keys from a results archive at `path`.
    ///
    /// * A **directory** is treated as a result-cache directory: every
    ///   `<32-hex-key>.json` file contributes its stem.
    /// * A **file** is scanned for quoted 32-hex-digit strings, which
    ///   covers both a bare JSON array of keys and any report carrying a
    ///   `"job_keys"` list (e.g. `BENCH_farm.json`), without needing a
    ///   full JSON parser.
    pub fn load(path: &Path) -> std::io::Result<PruneSet> {
        let mut set = PruneSet::new();
        if path.is_dir() {
            for entry in std::fs::read_dir(path)? {
                let p = entry?.path();
                if p.extension().and_then(|e| e.to_str()) != Some("json") {
                    continue;
                }
                if let Some(key) = p
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .and_then(parse_hex_key)
                {
                    set.insert(key);
                }
            }
        } else {
            let text = std::fs::read_to_string(path)?;
            for piece in text.split('"').skip(1).step_by(2) {
                if let Some(key) = parse_hex_key(piece) {
                    set.insert(key);
                }
            }
        }
        Ok(set)
    }
}

/// `"<32 hex digits>"` → key; anything else → `None`.
fn parse_hex_key(s: &str) -> Option<u128> {
    if s.len() == 32 && s.bytes().all(|b| b.is_ascii_hexdigit()) {
        u128::from_str_radix(s, 16).ok()
    } else {
        None
    }
}

/// One unit of farm work: a spec plus per-run engine overrides.
#[derive(Debug, Clone)]
pub struct FarmJob {
    /// What to simulate.
    pub spec: RunSpec,
    /// Execution overrides (stepping mode, cycle ceiling). Only
    /// `max_cycles` participates in the content key.
    pub opts: RunOpts,
}

impl FarmJob {
    /// A job with default execution options.
    pub fn new(spec: RunSpec) -> Self {
        FarmJob {
            spec,
            opts: RunOpts::default(),
        }
    }

    /// A job with explicit execution options.
    pub fn with_opts(spec: RunSpec, opts: RunOpts) -> Self {
        FarmJob { spec, opts }
    }

    /// The job's content key (see [`job_digest`]).
    pub fn digest(&self) -> u128 {
        job_digest(&self.spec, &self.opts)
    }
}

/// What one farm batch did, job by job.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FarmStats {
    /// Jobs submitted.
    pub jobs: u64,
    /// Jobs that ran a fresh simulation.
    pub sims: u64,
    /// Jobs served from the in-memory cache index.
    pub mem_hits: u64,
    /// Jobs served from a cache file on disk.
    pub disk_hits: u64,
    /// Jobs that attached to an identical job earlier in the batch.
    pub dedup: u64,
    /// Jobs skipped because their content key appeared in a caller-
    /// supplied [`PruneSet`] archive (no record produced).
    pub pruned: u64,
}

impl FarmStats {
    /// Cache hits of either tier.
    pub fn hits(&self) -> u64 {
        self.mem_hits + self.disk_hits
    }

    /// Jobs avoided entirely (cache hits + submission dedup).
    pub fn avoided(&self) -> u64 {
        self.hits() + self.dedup
    }

    /// Fraction of jobs served from the cache (0 when the batch was
    /// empty).
    pub fn hit_rate(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.hits() as f64 / self.jobs as f64
        }
    }
}

impl std::ops::AddAssign for FarmStats {
    /// Accumulate another batch's counters (a sweep's axes, a server's
    /// lifetime total).
    fn add_assign(&mut self, other: FarmStats) {
        self.jobs += other.jobs;
        self.sims += other.sims;
        self.mem_hits += other.mem_hits;
        self.disk_hits += other.disk_hits;
        self.dedup += other.dedup;
        self.pruned += other.pruned;
    }
}

/// A run service bound to a result cache and a worker count.
pub struct Farm<'c> {
    cache: &'c ResultCache,
    threads: usize,
}

impl<'c> Farm<'c> {
    /// A farm over an explicit cache. `threads` is clamped to
    /// `[1, unique batch size]` per call.
    pub fn new(cache: &'c ResultCache, threads: usize) -> Self {
        Farm { cache, threads }
    }

    /// A farm over the process-wide environment-configured cache.
    pub fn global(threads: usize) -> Farm<'static> {
        Farm::new(ResultCache::global(), threads)
    }

    /// The cache this farm resolves through.
    pub fn cache(&self) -> &ResultCache {
        self.cache
    }

    /// Execute a batch; results are index-aligned with `jobs` regardless
    /// of completion order.
    pub fn run(&self, jobs: &[FarmJob]) -> (Vec<RunRecord>, FarmStats) {
        self.run_streaming(jobs, |_, _| {})
    }

    /// Execute a batch, invoking `on_result(index, record)` on the
    /// calling thread as each job completes (completion order, not
    /// submission order; deduplicated copies arrive with their owner).
    /// Returns the index-aligned records plus the batch statistics.
    pub fn run_streaming(
        &self,
        jobs: &[FarmJob],
        on_result: impl FnMut(usize, &RunRecord),
    ) -> (Vec<RunRecord>, FarmStats) {
        let (results, stats) = self.run_inner(jobs, &PruneSet::default(), on_result);
        let records = results
            .into_iter()
            .enumerate()
            .map(|(i, r)| r.unwrap_or_else(|| panic!("job {i} produced no record")))
            .collect();
        (records, stats)
    }

    /// Execute a batch, skipping every job whose content key appears in
    /// `prune` (an archive of already-computed points). Pruned slots
    /// come back as `None`; everything else behaves exactly like
    /// [`Farm::run`]. `stats.pruned` counts the skips.
    pub fn run_pruned(
        &self,
        jobs: &[FarmJob],
        prune: &PruneSet,
    ) -> (Vec<Option<RunRecord>>, FarmStats) {
        self.run_inner(jobs, prune, |_, _| {})
    }

    /// [`Farm::run_pruned`] with a streaming callback: `on_result` fires
    /// on the calling thread for every non-pruned job as its record
    /// becomes available (completion order). The simulation server's
    /// submit path is built on this entry point — each callback turns
    /// into a `record` reply on the wire.
    pub fn run_pruned_streaming(
        &self,
        jobs: &[FarmJob],
        prune: &PruneSet,
        on_result: impl FnMut(usize, &RunRecord),
    ) -> (Vec<Option<RunRecord>>, FarmStats) {
        self.run_inner(jobs, prune, on_result)
    }

    fn run_inner(
        &self,
        jobs: &[FarmJob],
        prune: &PruneSet,
        mut on_result: impl FnMut(usize, &RunRecord),
    ) -> (Vec<Option<RunRecord>>, FarmStats) {
        if jobs.is_empty() {
            return (Vec::new(), FarmStats::default());
        }
        // Submission dedup: only the first job with a given content key
        // executes; later identical jobs attach to it as waiters. Keys
        // are cheap (hashing, no simulation) but not free (the kernel IR
        // is materialized), so each is computed once, up front. Pruned
        // keys never enter the dedup map at all: they own nothing, wait
        // on nothing, and produce no record.
        let mut first: HashMap<u128, usize> = HashMap::new();
        let mut owners: Vec<usize> = Vec::new();
        let mut waiters: Vec<Vec<usize>> = jobs.iter().map(|_| Vec::new()).collect();
        let mut pruned = 0u64;
        for (i, key) in jobs.iter().map(FarmJob::digest).enumerate() {
            if prune.contains(key) {
                pruned += 1;
                continue;
            }
            match first.entry(key) {
                Entry::Vacant(v) => {
                    v.insert(i);
                    owners.push(i);
                }
                Entry::Occupied(o) => waiters[*o.get()].push(i),
            }
        }
        let dedup = jobs.len() as u64 - owners.len() as u64 - pruned;
        if owners.is_empty() {
            let stats = FarmStats {
                jobs: jobs.len() as u64,
                pruned,
                dedup,
                ..FarmStats::default()
            };
            return (jobs.iter().map(|_| None).collect(), stats);
        }
        let keys: HashMap<usize, u128> = first.into_iter().map(|(k, i)| (i, k)).collect();

        let threads = self.threads.clamp(1, owners.len());
        let next = AtomicUsize::new(0);
        let sims = AtomicU64::new(0);
        let mem_hits = AtomicU64::new(0);
        let disk_hits = AtomicU64::new(0);
        let (tx, rx) = mpsc::channel::<(usize, RunRecord)>();

        let mut results: Vec<Option<RunRecord>> = jobs.iter().map(|_| None).collect();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let tx = tx.clone();
                let (next, keys, owners) = (&next, &keys, &owners);
                let (sims, mem_hits, disk_hits) = (&sims, &mem_hits, &disk_hits);
                scope.spawn(move || loop {
                    let slot = next.fetch_add(1, Ordering::Relaxed);
                    if slot >= owners.len() {
                        break;
                    }
                    let i = owners[slot];
                    let key = keys[&i];
                    let rec = match self.cache.lookup_tiered(key) {
                        Some((rec, tier)) => {
                            match tier {
                                CacheTier::Memory => mem_hits.fetch_add(1, Ordering::Relaxed),
                                CacheTier::Disk => disk_hits.fetch_add(1, Ordering::Relaxed),
                            };
                            rec
                        }
                        None => {
                            let rec = run_one_with_opts(&jobs[i].spec, &jobs[i].opts);
                            sims.fetch_add(1, Ordering::Relaxed);
                            self.cache.insert(key, &rec);
                            rec
                        }
                    };
                    let _ = tx.send((i, rec));
                });
            }
            drop(tx);
            // Collector: the submitting thread owns the result slots, so
            // workers never contend on them (no per-slot locks) and the
            // streaming callback needs neither `Send` nor `Sync`.
            while let Ok((i, rec)) = rx.recv() {
                for &w in &waiters[i] {
                    on_result(w, &rec);
                    results[w] = Some(rec.clone());
                }
                on_result(i, &rec);
                results[i] = Some(rec);
            }
        });

        let stats = FarmStats {
            jobs: jobs.len() as u64,
            sims: sims.into_inner(),
            mem_hits: mem_hits.into_inner(),
            disk_hits: disk_hits.into_inner(),
            dedup,
            pruned,
        };
        (results, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheMode;
    use crate::engine::Engine;
    use caps_workloads::Workload;

    fn off_cache() -> ResultCache {
        ResultCache::new(CacheMode::Off, std::env::temp_dir().join("caps-farm-unused"))
    }

    #[test]
    fn batch_results_are_input_aligned() {
        let cache = off_cache();
        let farm = Farm::new(&cache, 3);
        let jobs = vec![
            FarmJob::new(RunSpec::small(Workload::Jc1, Engine::Baseline)),
            FarmJob::new(RunSpec::small(Workload::Mm, Engine::Caps)),
        ];
        let (recs, stats) = farm.run(&jobs);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].workload, "JC1");
        assert_eq!(
            (recs[1].workload.as_str(), recs[1].engine.as_str()),
            ("MM", "CAPS")
        );
        assert_eq!(stats.jobs, 2);
        assert_eq!(stats.sims, 2);
        assert_eq!(stats.avoided(), 0);
    }

    #[test]
    fn identical_jobs_dedup_at_submission() {
        let cache = off_cache();
        let farm = Farm::new(&cache, 4);
        let job = FarmJob::new(RunSpec::small(Workload::Jc1, Engine::Baseline));
        let jobs = vec![
            job.clone(),
            FarmJob::new(RunSpec::small(Workload::Jc1, Engine::Caps)),
            job.clone(),
            job,
        ];
        let (recs, stats) = farm.run(&jobs);
        // Deterministic regardless of worker timing or cache mode: the
        // three identical jobs collapse to one simulation.
        assert_eq!(stats.jobs, 4);
        assert_eq!(stats.sims, 2);
        assert_eq!(stats.dedup, 2);
        assert_eq!(stats.hits(), 0, "cache is off");
        assert_eq!(recs[2].stats, recs[0].stats);
        assert_eq!(recs[3].stats, recs[0].stats);
        assert_eq!(recs[1].engine, "CAPS");
    }

    #[test]
    fn streaming_delivers_every_completion() {
        let cache = off_cache();
        let farm = Farm::new(&cache, 2);
        let jobs = vec![
            FarmJob::new(RunSpec::small(Workload::Jc1, Engine::Baseline)),
            FarmJob::new(RunSpec::small(Workload::Jc1, Engine::Caps)),
            FarmJob::new(RunSpec::small(Workload::Jc1, Engine::Baseline)),
        ];
        let mut seen = Vec::new();
        let (recs, _) = farm.run_streaming(&jobs, |i, rec| seen.push((i, rec.stats.cycles)));
        seen.sort_unstable();
        assert_eq!(seen.len(), 3, "dedup copies also stream");
        for (i, cycles) in seen {
            assert_eq!(cycles, recs[i].stats.cycles);
        }
    }

    #[test]
    fn pruned_jobs_are_skipped_without_records() {
        let cache = off_cache();
        let farm = Farm::new(&cache, 2);
        let jobs = vec![
            FarmJob::new(RunSpec::small(Workload::Jc1, Engine::Baseline)),
            FarmJob::new(RunSpec::small(Workload::Jc1, Engine::Caps)),
            FarmJob::new(RunSpec::small(Workload::Jc1, Engine::Baseline)),
        ];
        let mut prune = PruneSet::new();
        prune.insert(jobs[0].digest());
        let (recs, stats) = farm.run_pruned(&jobs, &prune);
        // Both BASE jobs share the pruned key: neither runs, and the
        // duplicate counts as pruned, not dedup.
        assert!(recs[0].is_none() && recs[2].is_none());
        assert_eq!(recs[1].as_ref().map(|r| r.engine.as_str()), Some("CAPS"));
        assert_eq!(stats.jobs, 3);
        assert_eq!(stats.pruned, 2);
        assert_eq!(stats.dedup, 0);
        assert_eq!(stats.sims, 1);
    }

    #[test]
    fn fully_pruned_batch_runs_nothing() {
        let cache = off_cache();
        let farm = Farm::new(&cache, 4);
        let jobs = vec![FarmJob::new(RunSpec::small(Workload::Jc1, Engine::Baseline))];
        let mut prune = PruneSet::new();
        prune.insert(jobs[0].digest());
        let (recs, stats) = farm.run_pruned(&jobs, &prune);
        assert_eq!(recs.len(), 1);
        assert!(recs[0].is_none());
        assert_eq!(stats.pruned, 1);
        assert_eq!(stats.sims, 0);
    }

    #[test]
    fn prune_set_loads_from_file_and_directory() {
        let dir = std::env::temp_dir().join(format!("caps-prune-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let key_a = 0x00112233445566778899aabbccddeeffu128;
        let key_b = 0xfeedfacecafebeef0123456789abcdefu128;

        // Directory form: result-cache layout, one <32-hex>.json per
        // record; stray files are ignored.
        std::fs::write(dir.join(format!("{key_a:032x}.json")), "{}").unwrap();
        std::fs::write(dir.join("notes.txt"), "ignore me").unwrap();
        std::fs::write(dir.join("short.json"), "{}").unwrap();
        let set = PruneSet::load(&dir).unwrap();
        assert_eq!(set.len(), 1);
        assert!(set.contains(key_a) && !set.contains(key_b));

        // File form: any report carrying quoted 32-hex keys, e.g. a
        // farm summary with a job_keys array.
        let report = dir.join("BENCH_farm.json");
        std::fs::write(
            &report,
            format!(
                "{{\"pruned\": 0, \"job_keys\": [\"{key_a:032x}\", \"{key_b:032x}\"], \"note\": \"x\"}}"
            ),
        )
        .unwrap();
        let set = PruneSet::load(&report).unwrap();
        assert_eq!(set.len(), 2);
        assert!(set.contains(key_a) && set.contains(key_b));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let cache = off_cache();
        let (recs, stats) = Farm::new(&cache, 8).run(&[]);
        assert!(recs.is_empty());
        assert_eq!(stats, FarmStats::default());
    }
}
