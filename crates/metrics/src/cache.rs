//! Persistent content-addressed result cache.
//!
//! Every run is keyed by a [`Digest`] over the complete run identity —
//! engine variant, workload, scale, full
//! [`GpuConfig`](caps_gpu_sim::config::GpuConfig), the materialized
//! kernel IR, and the effective cycle ceiling — salted with the build's
//! simulator-source fingerprint (`CAPS_SIM_FINGERPRINT`, computed by
//! `build.rs`) and the cache schema version. Two consequences:
//!
//! * overlapping sweeps never simulate the same `(config, kernel)` point
//!   twice — the farm resolves repeats from memory or disk, and cached
//!   records are bit-identical to fresh runs (`u64` counters round-trip
//!   exactly through `caps_json`; floats via shortest-roundtrip
//!   formatting);
//! * entries written by a *different build* of the simulator can never
//!   hit (their keys differ), so a code change silently invalidates the
//!   cache instead of serving stale statistics.
//!
//! On-disk layout: one `<dir>/<32-hex-key>.json` per record, written
//! atomically (unique tmp file + rename) so concurrent writers and
//! killed processes can never leave a torn entry. Reads treat any
//! malformed or mismatched file as a miss.
//!
//! Environment knobs (read once, on first use of the global cache):
//!
//! * `GPU_SIM_CACHE` — `rw` (default: read and write), `ro` (read-only),
//!   `off` (bypass entirely);
//! * `GPU_SIM_CACHE_DIR` — cache directory (default `.sim-cache`);
//! * `GPU_SIM_CACHE_MAX_MB` — size cap in MiB; when the on-disk entries
//!   exceed it, the oldest-by-mtime entries are garbage-collected down
//!   to 7/8 of the cap (unset, `0`, or unparsable: unbounded).
//!
//! Eviction is safe against concurrent readers by construction: an
//! entry file is only ever complete (atomic rename) or absent
//! (unlinked), and a reader that loses the race observes a clean miss —
//! never a torn record.
//!
//! The execution-mode field of [`RunOpts`] (`fast_forward`) is
//! deliberately **excluded** from the key: naive and wake-driven
//! stepping produce identical records (enforced by the differential
//! suites), so a record computed in either mode satisfies the other.
//! `max_cycles` *is* keyed — a lower ceiling truncates runs.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use caps_gpu_sim::digest::{Digest, Hashable};
use caps_json::{obj, Value};

use crate::harness::{RunOpts, RunRecord, RunSpec};

/// Version of the on-disk entry layout. Bump when the JSON shape of a
/// cache entry changes (the *content* key already tracks simulator
/// source through the build fingerprint).
pub const CACHE_SCHEMA_VERSION: u64 = 2;

/// FNV-1a fingerprint of the simulator-stack sources, baked in by
/// `build.rs`. Part of every cache key.
pub const SIM_FINGERPRINT: &str = env!("CAPS_SIM_FINGERPRINT");

/// Cache behaviour, from `GPU_SIM_CACHE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// No lookups, no stores — every job simulates.
    Off,
    /// Read hits and persist fresh results (the default).
    ReadWrite,
    /// Read hits but never write the disk (shared/CI artifact caches).
    ReadOnly,
}

impl CacheMode {
    /// Parse `GPU_SIM_CACHE` (`off`/`0`/`no`, `rw`/`on`/`1`, `ro`);
    /// unset or unrecognized values mean [`CacheMode::ReadWrite`].
    pub fn from_env() -> Self {
        match std::env::var("GPU_SIM_CACHE").as_deref() {
            Ok("off") | Ok("0") | Ok("no") => CacheMode::Off,
            Ok("ro") => CacheMode::ReadOnly,
            _ => CacheMode::ReadWrite,
        }
    }
}

/// Cache directory: `GPU_SIM_CACHE_DIR`, default `.sim-cache`.
pub fn default_cache_dir() -> PathBuf {
    match std::env::var_os("GPU_SIM_CACHE_DIR") {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => PathBuf::from(".sim-cache"),
    }
}

/// Disk budget from `GPU_SIM_CACHE_MAX_MB` (MiB). Unset, `0`, or
/// unparsable values mean unbounded.
pub fn default_cache_max_bytes() -> Option<u64> {
    let mb = std::env::var("GPU_SIM_CACHE_MAX_MB")
        .ok()?
        .trim()
        .parse::<u64>()
        .ok()?;
    if mb == 0 {
        None
    } else {
        Some(mb.saturating_mul(1024 * 1024))
    }
}

/// Which tier served a cache hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTier {
    /// In-process index.
    Memory,
    /// Parsed from a `<key>.json` file.
    Disk,
}

/// Monotonic counters for one [`ResultCache`] (process lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Hits served from the in-memory index.
    pub mem_hits: u64,
    /// Hits parsed from disk (then promoted to the index).
    pub disk_hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Entries written to disk.
    pub stores: u64,
    /// Failed disk writes (cache stays best-effort; the run result is
    /// unaffected).
    pub store_errors: u64,
}

/// The canonical content key of one job: everything that determines the
/// run's statistics, salted with schema version and build fingerprint.
pub fn job_digest(spec: &RunSpec, opts: &RunOpts) -> u128 {
    let mut d = Digest::with_salt(SIM_FINGERPRINT);
    d.write_u64(CACHE_SCHEMA_VERSION);
    spec.engine.digest_into(&mut d);
    d.write_str(spec.workload.abbr());
    d.write_tag(match spec.scale {
        caps_workloads::Scale::Full => 0,
        caps_workloads::Scale::Small => 1,
    });
    spec.base_config.digest_into(&mut d);
    // The materialized kernel IR: any change to a workload's program,
    // geometry, or scaling lands here even if the enum name is stable.
    spec.workload.kernel(spec.scale).digest_into(&mut d);
    // Tenancy is content: a co-run's statistics depend on who shares
    // the machine, under which partitioning policy, and whether the
    // interference monitor may throttle. Partner kernel IR is digested
    // too, so a partner workload's program change invalidates the key.
    match &spec.tenancy {
        crate::harness::Tenancy::Solo => d.write_tag(0),
        crate::harness::Tenancy::Co {
            partners,
            policy,
            throttle,
        } => {
            d.write_tag(1);
            d.write_str(policy.name());
            d.write_tag(u8::from(*throttle));
            d.write_u64(partners.len() as u64);
            for p in partners {
                d.write_str(p.abbr());
                p.kernel(spec.scale).digest_into(&mut d);
            }
        }
    }
    d.write_u64(
        opts.max_cycles
            .unwrap_or(caps_gpu_sim::gpu::DEFAULT_MAX_CYCLES),
    );
    d.finish()
}

/// A persistent, thread-safe, content-addressed store of [`RunRecord`]s.
pub struct ResultCache {
    mode: CacheMode,
    dir: PathBuf,
    max_bytes: Option<u64>,
    index: Mutex<HashMap<u128, RunRecord>>,
    mem_hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    store_errors: AtomicU64,
    tmp_seq: AtomicU64,
}

static GLOBAL: OnceLock<ResultCache> = OnceLock::new();

impl ResultCache {
    /// A cache over `dir` with explicit behaviour.
    pub fn new(mode: CacheMode, dir: impl Into<PathBuf>) -> Self {
        ResultCache {
            mode,
            dir: dir.into(),
            max_bytes: None,
            index: Mutex::new(HashMap::new()),
            mem_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            store_errors: AtomicU64::new(0),
            tmp_seq: AtomicU64::new(0),
        }
    }

    /// Cache configured from the environment (`GPU_SIM_CACHE`,
    /// `GPU_SIM_CACHE_DIR`, `GPU_SIM_CACHE_MAX_MB`).
    pub fn from_env() -> Self {
        Self::new(CacheMode::from_env(), default_cache_dir())
            .with_max_bytes(default_cache_max_bytes())
    }

    /// Set (or clear) the on-disk size budget in bytes. Exceeding it
    /// evicts the oldest-written entries first (see
    /// [`ResultCache::gc`]); a hit never touches an entry's mtime.
    pub fn with_max_bytes(mut self, max_bytes: Option<u64>) -> Self {
        self.max_bytes = max_bytes;
        self
    }

    /// The configured disk budget, if any.
    pub fn max_bytes(&self) -> Option<u64> {
        self.max_bytes
    }

    /// The process-wide shared cache used by [`run_matrix`] and
    /// [`sweep`] (environment-configured, built on first use).
    ///
    /// [`run_matrix`]: crate::harness::run_matrix
    /// [`sweep`]: crate::sweep::sweep
    pub fn global() -> &'static ResultCache {
        GLOBAL.get_or_init(ResultCache::from_env)
    }

    /// The cache's behaviour mode.
    pub fn mode(&self) -> CacheMode {
        self.mode
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Counter snapshot.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            mem_hits: self.mem_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            store_errors: self.store_errors.load(Ordering::Relaxed),
        }
    }

    fn entry_path(&self, key: u128) -> PathBuf {
        self.dir.join(format!("{key:032x}.json"))
    }

    /// Look up a record, reporting which tier served it.
    pub fn lookup_tiered(&self, key: u128) -> Option<(RunRecord, CacheTier)> {
        if self.mode == CacheMode::Off {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        if let Some(rec) = self.index.lock().unwrap().get(&key) {
            self.mem_hits.fetch_add(1, Ordering::Relaxed);
            return Some((rec.clone(), CacheTier::Memory));
        }
        if let Some(rec) = self.load_from_disk(key) {
            self.disk_hits.fetch_add(1, Ordering::Relaxed);
            self.index.lock().unwrap().insert(key, rec.clone());
            return Some((rec, CacheTier::Disk));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Look up a record by content key.
    pub fn lookup(&self, key: u128) -> Option<RunRecord> {
        self.lookup_tiered(key).map(|(rec, _)| rec)
    }

    /// Publish a fresh result under `key`: always into the in-memory
    /// index (except in `Off` mode), and onto disk in `ReadWrite` mode.
    pub fn insert(&self, key: u128, record: &RunRecord) {
        match self.mode {
            CacheMode::Off => return,
            CacheMode::ReadOnly => {}
            CacheMode::ReadWrite => self.store_to_disk(key, record),
        }
        self.index.lock().unwrap().insert(key, record.clone());
    }

    /// Forget everything in the in-memory index (disk untouched). Lets
    /// tests and the farm bench exercise the disk path deliberately.
    pub fn drop_index(&self) {
        self.index.lock().unwrap().clear();
    }

    fn load_from_disk(&self, key: u128) -> Option<RunRecord> {
        let text = std::fs::read_to_string(self.entry_path(key)).ok()?;
        let doc = Value::parse(&text).ok()?;
        // Any mismatch (schema bump, truncated write that still parses,
        // hand-edited file) is a miss, never an error.
        if doc.get("schema")?.as_u64().ok()? != CACHE_SCHEMA_VERSION {
            return None;
        }
        if doc.get("key")?.as_str().ok()? != format!("{key:032x}") {
            return None;
        }
        crate::export::record_from_value(doc.get("record")?).ok()
    }

    fn store_to_disk(&self, key: u128, record: &RunRecord) {
        let doc = obj(vec![
            ("schema", Value::UInt(CACHE_SCHEMA_VERSION)),
            ("key", Value::Str(format!("{key:032x}"))),
            ("fingerprint", Value::Str(SIM_FINGERPRINT.to_string())),
            ("record", crate::export::record_to_value(record)),
        ]);
        let final_path = self.entry_path(key);
        // Unique tmp name per (process, store): concurrent writers of
        // the same key each rename a complete file into place.
        let tmp = self.dir.join(format!(
            ".tmp-{key:032x}-{}-{}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed),
        ));
        let write = || -> std::io::Result<()> {
            std::fs::create_dir_all(&self.dir)?;
            std::fs::write(&tmp, doc.pretty())?;
            std::fs::rename(&tmp, &final_path)
        };
        match write() {
            Ok(()) => {
                let stores = self.stores.fetch_add(1, Ordering::Relaxed) + 1;
                // Amortize the directory scan: only every few stores,
                // and only when a budget is configured.
                if self.max_bytes.is_some() && stores.is_multiple_of(GC_STORE_PERIOD) {
                    self.gc();
                }
            }
            Err(_) => {
                let _ = std::fs::remove_file(&tmp);
                self.store_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Enforce the disk budget: if the `<key>.json` entries exceed
    /// `max_bytes`, unlink the oldest (by mtime, ties broken by name so
    /// the order is total) until the survivors fit in 7/8 of the cap —
    /// the slack keeps back-to-back stores from re-triggering a scan.
    ///
    /// Returns the number of entries evicted. A no-op without a budget.
    ///
    /// Safe against concurrent readers and writers: entries are only
    /// ever whole files (atomic rename), so an evicted entry reads as a
    /// clean miss, and a concurrently re-written entry survives as the
    /// new complete file. The in-memory index is deliberately left
    /// intact — records already promoted stay served from memory.
    pub fn gc(&self) -> usize {
        let Some(cap) = self.max_bytes else {
            return 0;
        };
        let Ok(dir) = std::fs::read_dir(&self.dir) else {
            return 0;
        };
        // (mtime, name, path, len) for every complete entry file.
        let mut entries: Vec<(std::time::SystemTime, std::ffi::OsString, PathBuf, u64)> =
            Vec::new();
        let mut total: u64 = 0;
        for ent in dir.flatten() {
            let name = ent.file_name();
            if !is_entry_file_name(&name) {
                continue;
            }
            let Ok(meta) = ent.metadata() else { continue };
            let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
            total += meta.len();
            entries.push((mtime, name, ent.path(), meta.len()));
        }
        if total <= cap {
            return 0;
        }
        let target = cap / 8 * 7;
        entries.sort();
        let mut evicted = 0;
        for (_, _, path, len) in &entries {
            if total <= target {
                break;
            }
            // A failed unlink (already evicted by a racing GC) still
            // means those bytes are gone.
            let _ = std::fs::remove_file(path);
            total = total.saturating_sub(*len);
            evicted += 1;
        }
        evicted
    }
}

/// How many successful stores between budget checks.
const GC_STORE_PERIOD: u64 = 32;

/// `<32-hex>.json`, the shape of a cache entry file. Anything else in
/// the directory (tmp files mid-rename, stray artifacts) is not GC'd.
fn is_entry_file_name(name: &std::ffi::OsStr) -> bool {
    let Some(name) = name.to_str() else {
        return false;
    };
    let Some(stem) = name.strip_suffix(".json") else {
        return false;
    };
    stem.len() == 32 && stem.bytes().all(|b| b.is_ascii_hexdigit())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use caps_workloads::{Scale, Workload};

    fn spec() -> RunSpec {
        RunSpec::small(Workload::Jc1, Engine::Baseline)
    }

    #[test]
    fn job_digest_is_stable_and_spec_sensitive() {
        let a = job_digest(&spec(), &RunOpts::default());
        assert_eq!(a, job_digest(&spec(), &RunOpts::default()));

        let mut other = spec();
        other.scale = Scale::Full;
        assert_ne!(a, job_digest(&other, &RunOpts::default()));

        let mut other = spec();
        other.engine = Engine::Caps;
        assert_ne!(a, job_digest(&other, &RunOpts::default()));

        let mut other = spec();
        other.base_config.l1d.mshr_entries = 16;
        assert_ne!(a, job_digest(&other, &RunOpts::default()));

        let ceiling = RunOpts {
            max_cycles: Some(1000),
            ..RunOpts::default()
        };
        assert_ne!(a, job_digest(&spec(), &ceiling));
    }

    #[test]
    fn tenancy_is_part_of_the_job_key() {
        use caps_gpu_sim::tenant::Partitioning;
        use crate::harness::Tenancy;

        let solo = job_digest(&spec(), &RunOpts::default());
        let co = spec().co_resident(vec![Workload::Mm], Partitioning::Shared);
        let co_key = job_digest(&co, &RunOpts::default());
        assert_ne!(solo, co_key, "co-run must not alias the solo run");

        // Every tenancy ingredient perturbs the key: partner set,
        // policy, throttle.
        let other_partner = spec().co_resident(vec![Workload::Scn], Partitioning::Shared);
        assert_ne!(co_key, job_digest(&other_partner, &RunOpts::default()));
        let other_policy = spec().co_resident(vec![Workload::Mm], Partitioning::SmSplit);
        assert_ne!(co_key, job_digest(&other_policy, &RunOpts::default()));
        let mut no_throttle = co.clone();
        if let Tenancy::Co { throttle, .. } = &mut no_throttle.tenancy {
            *throttle = false;
        }
        assert_ne!(co_key, job_digest(&no_throttle, &RunOpts::default()));

        // And the digest stays stable for an identical co-spec.
        let again = spec().co_resident(vec![Workload::Mm], Partitioning::Shared);
        assert_eq!(co_key, job_digest(&again, &RunOpts::default()));
    }

    #[test]
    fn execution_mode_does_not_change_the_key() {
        let a = job_digest(&spec(), &RunOpts::default());
        let modes = RunOpts {
            fast_forward: Some(false),
            max_cycles: None,
        };
        assert_eq!(a, job_digest(&spec(), &modes));
    }

    #[test]
    fn mode_parsing_defaults_to_rw() {
        // Avoid set_var races with parallel tests: only check that the
        // ambient environment yields *some* valid mode and that the
        // default path is ReadWrite when the variable is unset.
        if std::env::var("GPU_SIM_CACHE").is_err() {
            assert_eq!(CacheMode::from_env(), CacheMode::ReadWrite);
        }
    }

    #[test]
    fn entry_file_name_filter() {
        use std::ffi::OsStr;
        assert!(is_entry_file_name(OsStr::new(&format!(
            "{:032x}.json",
            7u128
        ))));
        assert!(!is_entry_file_name(OsStr::new("README.json")));
        assert!(!is_entry_file_name(OsStr::new(&format!(
            ".tmp-{:032x}-1-2",
            7u128
        ))));
        assert!(!is_entry_file_name(OsStr::new(&format!("{:031x}.json", 7u128))));
        assert!(!is_entry_file_name(OsStr::new(&format!("{:032x}.txt", 7u128))));
    }

    #[test]
    fn gc_evicts_oldest_until_under_cap() {
        let dir = std::env::temp_dir().join(format!("caps-cache-gc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rec = crate::harness::run_one(&spec());
        let unbounded = ResultCache::new(CacheMode::ReadWrite, &dir);
        let entry_size = {
            unbounded.insert(1, &rec);
            std::fs::metadata(unbounded.entry_path(1)).unwrap().len()
        };
        // Budget for ~3 entries; write 8 in mtime order with explicit
        // spacing so "oldest" is well-defined even on coarse clocks.
        let cache = ResultCache::new(CacheMode::ReadWrite, &dir)
            .with_max_bytes(Some(entry_size * 7 / 2));
        for key in 1..=8u128 {
            cache.insert(key, &rec);
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let evicted = cache.gc();
        assert!(evicted >= 5, "evicted {evicted} of 8");
        // Survivors fit the budget and are the most recent keys.
        let survivors: Vec<u128> = (1..=8u128)
            .filter(|k| cache.entry_path(*k).exists())
            .collect();
        let total: u64 = survivors
            .iter()
            .map(|k| std::fs::metadata(cache.entry_path(*k)).unwrap().len())
            .sum();
        assert!(total <= entry_size * 7 / 2);
        assert!(!survivors.is_empty(), "GC must not evict everything");
        assert!(
            survivors.contains(&8),
            "newest entry must survive, got {survivors:?}"
        );
        assert!(
            !cache.entry_path(1).exists(),
            "oldest entry must be evicted"
        );
        // Under budget: a second pass is a no-op.
        assert_eq!(cache.gc(), 0);
        // Evicted entries read as clean misses; survivors still load.
        cache.drop_index();
        assert!(cache.lookup(1).is_none());
        let reloaded = cache.lookup(8).expect("survivor loads");
        assert_eq!(
            crate::export::record_to_value(&reloaded).pretty(),
            crate::export::record_to_value(&rec).pretty()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The satellite guarantee: aggressive eviction racing concurrent
    /// readers and writers never surfaces a torn record — every lookup
    /// is either a bit-identical record or a clean miss.
    #[test]
    fn eviction_never_corrupts_concurrent_readers() {
        let dir = std::env::temp_dir().join(format!(
            "caps-cache-race-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let rec = crate::harness::run_one(&spec());
        let expected = crate::export::record_to_value(&rec).pretty();
        const KEYS: u128 = 6;

        let writer_dir = dir.clone();
        let writer_rec = rec.clone();
        let writer = std::thread::spawn(move || {
            // A budget of ~2 entries over 6 live keys: every GC pass
            // evicts files readers are chasing.
            let probe = ResultCache::new(CacheMode::ReadWrite, &writer_dir);
            probe.insert(0, &writer_rec);
            let entry_size = std::fs::metadata(probe.entry_path(0)).unwrap().len();
            let cache = ResultCache::new(CacheMode::ReadWrite, &writer_dir)
                .with_max_bytes(Some(entry_size * 5 / 2));
            for round in 0..30 {
                for key in 0..KEYS {
                    cache.insert(key + KEYS * (round % 2), &writer_rec);
                    cache.gc();
                }
            }
        });

        let mut readers = Vec::new();
        for _ in 0..2 {
            let reader_dir = dir.clone();
            let expected = expected.clone();
            readers.push(std::thread::spawn(move || {
                let cache = ResultCache::new(CacheMode::ReadWrite, &reader_dir);
                let (mut hits, mut misses) = (0u64, 0u64);
                for _ in 0..200 {
                    for key in 0..2 * KEYS {
                        // Force the disk path every time.
                        cache.drop_index();
                        match cache.lookup(key) {
                            Some(got) => {
                                assert_eq!(
                                    crate::export::record_to_value(&got).pretty(),
                                    expected,
                                    "reader observed a corrupt record"
                                );
                                hits += 1;
                            }
                            None => misses += 1,
                        }
                    }
                }
                (hits, misses)
            }));
        }

        writer.join().unwrap();
        let mut total_hits = 0;
        for r in readers {
            let (hits, _) = r.join().unwrap();
            total_hits += hits;
        }
        assert!(total_hits > 0, "the race must actually exercise reads");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn off_mode_never_touches_disk() {
        let dir = std::env::temp_dir().join(format!("caps-cache-off-{}", std::process::id()));
        let cache = ResultCache::new(CacheMode::Off, &dir);
        let key = 42u128;
        let rec = crate::harness::run_one(&spec());
        cache.insert(key, &rec);
        assert!(cache.lookup(key).is_none());
        assert!(!dir.exists(), "Off mode must not create the cache dir");
        assert_eq!(cache.counters().stores, 0);
    }
}
