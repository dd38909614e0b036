//! Rounds: one set-up plus the timed passes of a workload, checked
//! against its references, and in traced runs replayed layer by layer.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use caps_metrics::{CacheMode, Farm, FarmJob, FarmStats, ResultCache, RunRecord};
use caps_service::{Client, Server, ServerConfig};

use crate::golden::{same_record, CorunGolden, Fig10Golden};
use crate::jobs;
use crate::probe;
use crate::trace::{self, LayerAcc, Tracer};

/// Farm workers and server workers: one, so that per-job time is the
/// gap between consecutive records and a 2-vCPU host is not
/// oversubscribed by the client's own threads.
pub const WORKERS: usize = 1;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Figure 10 grid, full scale, cache off.
    Fig10Grid,
    /// Small-scale sensitivity sweep over a fresh on-disk result cache.
    SweepCache,
    /// Committed co-runs served twice over one socket connection.
    CorunServed,
}

impl Kind {
    /// Parse a `--workload` name.
    pub fn parse(s: &str) -> Option<Kind> {
        match s {
            "fig10-grid" => Some(Kind::Fig10Grid),
            "sweep-cache" => Some(Kind::SweepCache),
            "corun-served" => Some(Kind::CorunServed),
            _ => None,
        }
    }

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig10Grid => "fig10-grid",
            Kind::SweepCache => "sweep-cache",
            Kind::CorunServed => "corun-served",
        }
    }

    /// Socket connections a round opens.
    pub fn connections(self) -> u64 {
        u64::from(self == Kind::CorunServed)
    }
}

/// Which submission of a round a pass is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassKind {
    /// Empty cache: every job simulates.
    Cold,
    /// Served from cache files after the in-memory index was dropped.
    WarmDisk,
    /// Served from the in-memory index.
    WarmMem,
}

/// One submission of the whole job list.
pub struct Pass {
    /// Which submission.
    pub kind: PassKind,
    /// Wall and on-CPU time.
    pub time: probe::Timed,
    /// Records, index-aligned with the jobs; `None` = no record.
    pub records: Vec<Option<RunRecord>>,
    /// `(job, gap)` for each record in arrival order: the time since the
    /// previous record (the first since submission), ms. With one worker
    /// this is the job's own time.
    pub gaps_ms: Vec<(usize, f64)>,
    /// What the farm did.
    pub farm: FarmStats,
    /// Transport or server error that ended the pass.
    pub error: Option<String>,
}

/// One measured round.
pub struct Round {
    /// Start → first job submitted, seconds.
    pub setup_s: f64,
    /// The timed passes, cold first.
    pub passes: Vec<Pass>,
    /// Mean size of a cache entry file written by the cold pass, bytes.
    pub entry_bytes: f64,
}

impl Round {
    /// The cold pass.
    pub fn cold(&self) -> &Pass {
        &self.passes[0]
    }

    /// Wall and on-CPU seconds over all timed passes.
    pub fn time(&self) -> probe::Timed {
        probe::Timed {
            wall_s: self.passes.iter().map(|p| p.time.wall_s).sum(),
            cpu_s: self.passes.iter().map(|p| p.time.cpu_s).sum(),
        }
    }
}

/// Each job's fastest time in pass `pass` over all rounds, ms,
/// index-aligned with the jobs (infinite for a job that never returned).
pub fn best_job_ms(rounds: &[Round], pass: usize) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; rounds[0].passes[pass].records.len()];
    for round in rounds {
        for &(job, ms) in &round.passes[pass].gaps_ms {
            best[job] = best[job].min(ms);
        }
    }
    best
}

/// Everything a run shares between rounds.
pub struct Ctx {
    /// Workload.
    pub kind: Kind,
    /// Input seed.
    pub seed: u64,
    /// Fresh directory for cache dirs and sockets, relative to the
    /// working directory so socket paths stay short.
    pub tmp: PathBuf,
    /// Figure 10 reference.
    pub fig10: Fig10Golden,
    /// Co-run reference.
    pub corun: CorunGolden,
}

impl Ctx {
    /// The workload's job list, with the co-run keys for `corun-served`.
    pub fn jobs(&self) -> (Vec<FarmJob>, Vec<(String, &'static str)>) {
        match self.kind {
            Kind::Fig10Grid => (jobs::fig10(self.seed), Vec::new()),
            Kind::SweepCache => (jobs::sweep(self.seed), Vec::new()),
            Kind::CorunServed => jobs::corun(self.seed)
                .into_iter()
                .map(|c| (c.job, (c.pairing, c.policy)))
                .unzip(),
        }
    }

    fn cache_dir(&self, tag: &str, round: usize) -> Result<PathBuf, String> {
        let dir = self.tmp.join(format!("{tag}-{round}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn farm_pass(kind: PassKind, farm: &Farm, jobs: &[FarmJob]) -> Result<Pass, String> {
    let mut gaps_ms = Vec::with_capacity(jobs.len());
    let ((records, farm_stats), time) = probe::timed(|| {
        let mut last = Instant::now();
        farm.run_streaming(jobs, |i, _| {
            let now = Instant::now();
            gaps_ms.push((i, ms(now - last)));
            last = now;
        })
    })?;
    Ok(Pass {
        kind,
        time,
        records: records.into_iter().map(Some).collect(),
        gaps_ms,
        farm: farm_stats,
        error: None,
    })
}

fn client_pass(kind: PassKind, client: &mut Client, jobs: &[FarmJob]) -> Result<Pass, String> {
    let mut gaps_ms = Vec::with_capacity(jobs.len());
    let (reply, time) = probe::timed(|| {
        let mut last = Instant::now();
        client.submit_streaming(jobs, &mut |i, _| {
            let now = Instant::now();
            gaps_ms.push((i, ms(now - last)));
            last = now;
        })
    })?;
    let (records, farm, error) = match reply {
        Ok((records, farm)) => (records, farm, None),
        Err(e) => (
            vec![None; jobs.len()],
            FarmStats::default(),
            Some(e.to_string()),
        ),
    };
    Ok(Pass {
        kind,
        time,
        records,
        gaps_ms,
        farm,
        error,
    })
}

/// Mean size of the files in `dir`, bytes (0 when empty).
fn mean_file_bytes(dir: &Path) -> f64 {
    let sizes: Vec<u64> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .collect()
        })
        .unwrap_or_default();
    if sizes.is_empty() {
        0.0
    } else {
        sizes.iter().sum::<u64>() as f64 / sizes.len() as f64
    }
}

/// Asks the server to stop when dropped, so an error or panic on the
/// client side can never leave the serving thread running.
struct StopOnDrop<'a>(&'a Server);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.request_shutdown();
    }
}

/// Run one round: set up, then (unless `setup_only`) the timed passes.
/// A set-up-only round has no passes.
pub fn round(ctx: &Ctx, index: usize, setup_only: bool) -> Result<Round, String> {
    let t0 = Instant::now();
    let (jobs, _) = ctx.jobs();
    jobs::materialize_ir(&jobs)?;
    match ctx.kind {
        Kind::Fig10Grid | Kind::SweepCache => {
            let (mode, dir) = if ctx.kind == Kind::Fig10Grid {
                (CacheMode::Off, ctx.tmp.join("cache-off"))
            } else {
                (CacheMode::ReadWrite, ctx.cache_dir("sweep", index)?)
            };
            let cache = ResultCache::new(mode, &dir);
            let farm = Farm::new(&cache, WORKERS);
            let setup_s = t0.elapsed().as_secs_f64();
            let mut passes = Vec::new();
            if !setup_only {
                passes.push(farm_pass(PassKind::Cold, &farm, &jobs)?);
                if ctx.kind == Kind::SweepCache {
                    cache.drop_index();
                    passes.push(farm_pass(PassKind::WarmDisk, &farm, &jobs)?);
                    passes.push(farm_pass(PassKind::WarmMem, &farm, &jobs)?);
                }
            }
            let entry_bytes = mean_file_bytes(&dir);
            if mode != CacheMode::Off {
                std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
            Ok(Round {
                setup_s,
                passes,
                entry_bytes,
            })
        }
        Kind::CorunServed => {
            let dir = ctx.cache_dir("corun", index)?;
            let socket = dir.join("sock");
            let cache_dir = dir.join("cache");
            let server = Server::new(
                ServerConfig {
                    socket: socket.clone(),
                    workers: WORKERS,
                },
                ResultCache::new(CacheMode::ReadWrite, &cache_dir),
            );
            let out = std::thread::scope(|scope| -> Result<Round, String> {
                let _stop = StopOnDrop(&server);
                let serving = scope.spawn(|| server.serve());
                let deadline = Instant::now() + Duration::from_secs(10);
                let mut client = loop {
                    match Client::connect(&socket) {
                        Ok(c) => break c,
                        Err(e) if serving.is_finished() || Instant::now() > deadline => {
                            return Err(format!("connect {}: {e}", socket.display()));
                        }
                        Err(_) => std::thread::sleep(Duration::from_micros(200)),
                    }
                };
                // Connected once the server has accepted and answered.
                client.status().map_err(|e| format!("server status: {e}"))?;
                let setup_s = t0.elapsed().as_secs_f64();
                let mut passes = Vec::new();
                if !setup_only {
                    passes.push(client_pass(PassKind::Cold, &mut client, &jobs)?);
                    passes.push(client_pass(PassKind::WarmMem, &mut client, &jobs)?);
                }
                client
                    .shutdown()
                    .map_err(|e| format!("server shutdown: {e}"))?;
                Ok(Round {
                    setup_s,
                    passes,
                    entry_bytes: mean_file_bytes(&cache_dir),
                })
            })?;
            std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            Ok(out)
        }
    }
}

/// Jobs attempted and failed in one round, with the reason for each
/// failure. A job fails a pass when it has no record, its pass ended in
/// an error, or its record differs from the reference: the committed
/// outputs for cold passes of `fig10-grid` and `corun-served`, the
/// first round's cold records (which a seeded sample checks against
/// in-process `run_one`) for `sweep-cache`, and the cold record for
/// every cache- or socket-served pass.
pub fn check(ctx: &Ctx, round: &Round, reference: Option<&[RunRecord]>) -> (u64, u64, Vec<String>) {
    let (jobs, keys) = ctx.jobs();
    let mut attempted = 0;
    let mut failures = Vec::new();
    let mut failed = 0;
    let cold = &round.cold().records;
    for pass in &round.passes {
        attempted += jobs.len() as u64;
        if let Some(e) = &pass.error {
            failed += jobs.len() as u64;
            failures.push(format!("{:?} pass: {e}", pass.kind));
            continue;
        }
        for (i, rec) in pass.records.iter().enumerate() {
            let Some(rec) = rec else {
                failed += 1;
                failures.push(format!("{:?} pass: job {i} returned no record", pass.kind));
                continue;
            };
            let diffs: Vec<String> = match (pass.kind, ctx.kind) {
                (PassKind::Cold, Kind::Fig10Grid) => ctx.fig10.check(rec),
                (PassKind::Cold, Kind::CorunServed) => ctx.corun.check(&keys[i].0, keys[i].1, rec),
                (PassKind::Cold, Kind::SweepCache) => match reference {
                    Some(r) if !same_record(rec, &r[i]) => {
                        vec![format!(
                            "job {i}: cold record differs from the first round's"
                        )]
                    }
                    _ => Vec::new(),
                },
                _ => match &cold[i] {
                    Some(c) if same_record(rec, c) => Vec::new(),
                    _ => vec![format!(
                        "job {i}: {:?} record differs from its cold record",
                        pass.kind
                    )],
                },
            };
            if !diffs.is_empty() {
                failed += 1;
                failures.extend(diffs);
            }
        }
    }
    (attempted, failed, failures)
}

/// Jobs of the seeded `sweep-cache` sample re-run in-process.
pub const SWEEP_SAMPLE: usize = 8;

/// Compare a seeded sample of `sweep-cache` cold records with
/// `run_one` of the same spec; returns the mismatches.
pub fn check_sweep_sample(ctx: &Ctx, cold: &[Option<RunRecord>]) -> Vec<String> {
    let (jobs, _) = ctx.jobs();
    let mut rng = jobs::Rng::new(ctx.seed.wrapping_add(0x5eed));
    (0..SWEEP_SAMPLE)
        .map(|_| rng.below(jobs.len()))
        .filter_map(|i| {
            let want = caps_metrics::run_one(&jobs[i].spec);
            match &cold[i] {
                Some(got) if got.stats == want.stats && got.per_kernel == want.per_kernel => None,
                _ => Some(format!(
                    "job {i}: cold record differs from in-process run_one"
                )),
            }
        })
        .collect()
}

/// What the traced replay of one round measured.
pub struct Traced {
    /// Untraced wall of the same passes, in process, seconds.
    pub untraced_wall_s: f64,
    /// Traced wall, probe time excluded, seconds.
    pub traced_wall_s: f64,
}

/// Replay `round`'s passes in process, layer by layer, and require
/// every traced record to equal the untraced one bit for bit.
pub fn trace_round(
    ctx: &Ctx,
    index: usize,
    round: &Round,
    tracer: &mut Tracer,
    acc: &mut LayerAcc,
) -> Result<Traced, String> {
    let (jobs, _) = ctx.jobs();
    let kinds: Vec<PassKind> = round.passes.iter().map(|p| p.kind).collect();
    let mode = if ctx.kind == Kind::Fig10Grid {
        CacheMode::Off
    } else {
        CacheMode::ReadWrite
    };

    // The untraced baseline: the round's own passes when they ran in
    // process; the same passes on an in-process farm when they ran over
    // the socket, so that service cost does not count as tracing cost.
    let untraced_wall_s = if ctx.kind == Kind::CorunServed {
        let dir = ctx.cache_dir("untraced", index)?;
        let cache = ResultCache::new(mode, &dir);
        let farm = Farm::new(&cache, WORKERS);
        let mut wall = 0.0;
        for &kind in &kinds {
            wall += farm_pass(kind, &farm, &jobs)?.time.wall_s;
        }
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        wall
    } else {
        round.time().wall_s
    };

    let dir = ctx.cache_dir("traced", index)?;
    let cache = ResultCache::new(mode, &dir);
    let mut traced_wall_s = 0.0;
    for (pass, kind) in round.passes.iter().zip(kinds) {
        if kind == PassKind::WarmDisk {
            cache.drop_index();
        }
        let t0 = Instant::now();
        let mut probe_ns = 0;
        for (i, job) in jobs.iter().enumerate() {
            let rec = trace::run_job(tracer, acc, i, job, &cache);
            let Some(want) = &pass.records[i] else {
                return Err(format!("job {i} has no untraced record to compare"));
            };
            if rec.stats != want.stats || rec.per_kernel != want.per_kernel {
                return Err(format!(
                    "traced {}/{} ({kind:?} pass) differs from the untraced run",
                    rec.workload, rec.engine
                ));
            }
            if kind == PassKind::Cold {
                probe_ns += trace::probe_codecs(tracer, acc, i, &rec)?;
            }
        }
        traced_wall_s += t0.elapsed().as_secs_f64() - probe_ns as f64 * 1e-9;
    }
    if mode != CacheMode::Off {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    Ok(Traced {
        untraced_wall_s,
        traced_wall_s,
    })
}
