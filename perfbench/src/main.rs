//! Seeded benchmark of the CAPS simulator stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig10-grid --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Run from the repository root. Each workload is a closed loop: one
//! client, one batch outstanding, a farm of one worker, at most one
//! socket connection. The last line of standard output is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`; the line
//! before it reports the host, the commit, and workload-specific
//! figures. See `perfbench/README.md` for what each metric means.

mod golden;
mod jobs;
mod metrics;
mod probe;
mod run;
mod trace;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use caps_json::{obj, Value};
use caps_metrics::{mean, RunRecord};

use metrics::{ratio, Metrics, END_TO_END, PER_LAYER};
use run::{Ctx, Kind, PassKind, Round};

/// Set-up-only rounds before each measured one, so `setup_s` is a median
/// of many set-ups spread over the run even when few rounds fit in
/// `--seconds`.
const SETUP_REPS: usize = 4;
/// Measured rounds per untraced run, at least: the fastest-of estimates
/// need a few rounds even when one round outlasts `--seconds`.
const MIN_ROUNDS: usize = 2;
/// No round starts once this much time has passed, so the command ends
/// well inside three minutes.
const ROUND_START_LIMIT: Duration = Duration::from_secs(120);

/// The paper's headline numbers the `fig10-grid` error figures use.
const PAPER_CAPS_IPC_GAIN: f64 = 1.08;
const PAPER_CAPS_ACCURACY: f64 = 0.97;
const PAPER_CNV_IPC_GAIN: f64 = 1.27;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <fig10-grid|sweep-cache|corun-served> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| (1..=100).contains(s))
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Every `GPU_SIM_*` variable changes what the simulator or the cache
/// does (fast-forward, thread counts, pinning, cache mode and directory,
/// a remote socket), so the benchmark refuses to run under any of them.
fn check_environment() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("GPU_SIM_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!("refusing to run with {} set", set.join(", ")))
    }
}

/// A fresh scratch directory under `.bench_tmp/`, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> Result<Self, String> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let dir = Path::new(".bench_tmp").join(format!("{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only succeeds when no other run is using it.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

/// The checked-out commit, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let code = match parse_args().and_then(|args| check_environment().map(|()| args)) {
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            2
        }
        Ok(args) => match TempDir::new().and_then(|tmp| bench(&args, &tmp.0)) {
            Ok(correct) => i32::from(!correct),
            Err(e) => {
                eprintln!("perfbench: {e}");
                3
            }
        },
    };
    std::process::exit(code);
}

/// Run the benchmark and print its result; `Ok(false)` when an output
/// was wrong.
fn bench(args: &Args, tmp: &Path) -> Result<bool, String> {
    let root = Path::new(".");
    let ctx = Ctx {
        kind: args.kind,
        seed: args.seed,
        tmp: tmp.to_path_buf(),
        fig10: golden::Fig10Golden::load(root)?,
        corun: golden::CorunGolden::load(root)?,
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if run::WORKERS > nproc {
        return Err(format!("{} workers exceed {nproc} CPUs", run::WORKERS));
    }
    let mut setups = Vec::new();
    let mut rounds: Vec<Round> = Vec::new();
    let mut tracer = trace::Tracer::new();
    let mut acc = trace::LayerAcc::default();
    let mut traced = Vec::new();
    // Peak memory of the first measured round: later rounds repeat the
    // same work and only add allocator noise.
    let mut peak_rss_mib = None;
    let measure_start = Instant::now();
    loop {
        for _ in 0..SETUP_REPS {
            setups.push(run::round(&ctx, setups.len(), true)?.setup_s);
        }
        let index = setups.len();
        let round = run::round(&ctx, index, false)?;
        if peak_rss_mib.is_none() {
            peak_rss_mib = Some(probe::peak_rss_mib().ok_or("cannot read /proc/self/status")?);
        }
        setups.push(round.setup_s);
        if args.trace {
            traced.push(run::trace_round(
                &ctx,
                index,
                &round,
                &mut tracer,
                &mut acc,
            )?);
        }
        rounds.push(round);
        let jobs = rounds[0].cold().records.len();
        let done = measure_start.elapsed() >= Duration::from_secs(args.seconds)
            && (args.trace || (rounds.len() >= MIN_ROUNDS && supports_p90(jobs, rounds.len())));
        if done || measure_start.elapsed() >= ROUND_START_LIMIT {
            break;
        }
    }
    eprintln!(
        "perfbench: {} seed {}: {} rounds in {:.1} s",
        args.kind.name(),
        args.seed,
        rounds.len(),
        measure_start.elapsed().as_secs_f64()
    );

    // Correctness: every pass of every round against its reference.
    let mut attempted = 0;
    let mut failed = 0;
    let mut failures = Vec::new();
    let first_cold: Vec<RunRecord> = rounds[0].cold().records.iter().flatten().cloned().collect();
    let reference = (first_cold.len() == rounds[0].cold().records.len()).then_some(&first_cold[..]);
    for round in &rounds {
        let (a, f, why) = run::check(&ctx, round, reference);
        attempted += a;
        failed += f;
        failures.extend(why);
    }
    if args.kind == Kind::SweepCache {
        let sample = run::check_sweep_sample(&ctx, &rounds[0].cold().records);
        failed += sample.len() as u64;
        failures.extend(sample);
    }
    for f in failures.iter().take(20) {
        eprintln!("perfbench: FAILED {f}");
    }

    let metrics = if args.trace {
        per_layer(&ctx, &rounds, &traced, &tracer, &acc)?
    } else {
        end_to_end(&setups, &rounds, peak_rss_mib.unwrap_or_default())?
    };
    if args.trace {
        write_spans(args, &tracer)?;
    }
    let report = report(args, &rounds, &setups, nproc, attempted, failed, &failures)?;
    println!("{}", obj(vec![("report", report)]).compact());
    let correct = failed == 0 && failures.is_empty();
    println!(
        "{}",
        obj(vec![
            ("correct", Value::Bool(correct)),
            ("attempted", Value::UInt(attempted)),
            ("failed", Value::UInt(failed)),
            ("metrics", metrics),
        ])
        .compact()
    );
    Ok(correct)
}

fn cold_records(round: &Round) -> impl Iterator<Item = &RunRecord> {
    round.cold().records.iter().flatten()
}

/// Whether `rounds` rounds of `jobs` jobs leave at least ten job samples
/// beyond the p90 of the per-job best times.
fn supports_p90(jobs: usize, rounds: usize) -> bool {
    let beyond = jobs - (jobs * 9).div_ceil(10);
    beyond * rounds >= 10
}

/// Fastest of the values `f` takes over the rounds.
fn fastest(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    rounds.iter().map(f).fold(f64::INFINITY, f64::min)
}

/// Host times are the fastest round's, and job times each job's fastest
/// over the rounds: other load on a shared host only ever slows work
/// down, so the fastest of several is the steadiest estimate of what the
/// code costs.
fn end_to_end(setups: &[f64], rounds: &[Round], peak_rss_mib: f64) -> Result<Value, String> {
    let mut m = Metrics::new(&END_TO_END);
    m.set("setup_s", probe::median(setups));
    m.set("wall_s", fastest(rounds, |r| r.time().wall_s));
    m.set("cpu_s", fastest(rounds, |r| r.time().cpu_s));
    let cycles: u64 = cold_records(&rounds[0]).map(|r| r.stats.cycles).sum();
    m.set(
        "sim_cycles_per_s",
        cycles as f64 / fastest(rounds, |r| r.cold().time.wall_s),
    );
    let mut jobs = run::best_job_ms(rounds, 0);
    if !supports_p90(jobs.len(), rounds.len()) {
        return Err(format!(
            "{} jobs × {} rounds leave fewer than ten samples beyond p90",
            jobs.len(),
            rounds.len()
        ));
    }
    jobs.sort_by(f64::total_cmp);
    m.set("job_p50_ms", probe::median(&jobs));
    m.set("job_p90_ms", probe::percentile(&jobs, 90.0));
    m.set("peak_rss_mib", peak_rss_mib);
    m.to_value()
}

/// Fastest wall time of the passes of `kind`, ms.
fn pass_ms(rounds: &[Round], kind: PassKind) -> Option<f64> {
    let p = rounds[0].passes.iter().position(|p| p.kind == kind)?;
    Some(fastest(rounds, |r| r.passes[p].time.wall_s) * 1e3)
}

/// Error of the Figure 10 grid against the paper's headline numbers, in
/// percentage points: mean CAPS normalized IPC vs +8%; mean CAPS
/// accuracy over all 16 benchmarks, as the `Mean` row of Fig. 12(b)
/// prints it, vs 97%; CNV CAPS normalized IPC vs +27%.
fn fidelity(records: &[&RunRecord]) -> Option<(f64, f64, f64)> {
    let find = |w: &str, e: &str| records.iter().find(|r| r.workload == w && r.engine == e);
    let workloads = caps_workloads::all_workloads();
    let gain = |w: &str| Some(find(w, "CAPS")?.ipc() / find(w, "BASE")?.ipc());
    let gains: Vec<f64> = workloads
        .iter()
        .map(|w| gain(w.abbr()))
        .collect::<Option<_>>()?;
    let accuracy: Vec<f64> = workloads
        .iter()
        .map(|w| Some(find(w.abbr(), "CAPS")?.stats.accuracy()))
        .collect::<Option<_>>()?;
    Some((
        (mean(&gains) - PAPER_CAPS_IPC_GAIN).abs() * 100.0,
        (mean(&accuracy) - PAPER_CAPS_ACCURACY).abs() * 100.0,
        (gain("CNV")? - PAPER_CNV_IPC_GAIN).abs() * 100.0,
    ))
}

fn with_unit(value: f64, unit: &str) -> Value {
    obj(vec![
        ("value", Value::Float(value)),
        ("unit", Value::Str(unit.to_string())),
    ])
}

fn report(
    args: &Args,
    rounds: &[Round],
    setups: &[f64],
    nproc: usize,
    attempted: u64,
    failed: u64,
    failures: &[String],
) -> Result<Value, String> {
    let gaps: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.cold().gaps_ms.iter().map(|g| g.1))
        .collect();
    let mut figures = vec![(
        "failed_frac",
        with_unit(ratio(failed as f64, attempted as f64), "ratio"),
    )];
    figures.push((
        "jobs",
        with_unit(rounds[0].cold().records.len() as f64, "count"),
    ));
    figures.push(("job_samples", with_unit(gaps.len() as f64, "count")));
    // The raw distribution behind the best-of-rounds job figures.
    if let Some(s) = probe::summarize(&gaps) {
        figures.push(("pooled_job_p50_ms", with_unit(s.p50, "ms")));
        figures.push(("pooled_job_high_pct", with_unit(s.high_pct, "pct")));
        figures.push(("pooled_job_high_ms", with_unit(s.high, "ms")));
    }
    if let Some(v) = pass_ms(rounds, PassKind::WarmDisk) {
        figures.push(("warm_disk_ms", with_unit(v, "ms")));
    }
    if let Some(v) = pass_ms(rounds, PassKind::WarmMem) {
        figures.push(("warm_mem_ms", with_unit(v, "ms")));
    }
    if args.kind == Kind::Fig10Grid {
        let records: Vec<&RunRecord> = cold_records(&rounds[0]).collect();
        let (ipc, acc, cnv) = fidelity(&records).ok_or("fig10-grid records incomplete")?;
        figures.push(("ipc_gain_err_pp", with_unit(ipc, "pp")));
        figures.push(("accuracy_err_pp", with_unit(acc, "pp")));
        figures.push(("cnv_gain_err_pp", with_unit(cnv, "pp")));
    }
    Ok(obj(vec![
        ("workload", Value::Str(args.kind.name().to_string())),
        ("seed", Value::UInt(args.seed)),
        ("seconds", Value::UInt(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("commit", Value::Str(git_commit())),
        ("host", caps_bench::host_json(run::WORKERS)),
        ("nproc", Value::UInt(nproc as u64)),
        ("workers", Value::UInt(run::WORKERS as u64)),
        ("connections", Value::UInt(args.kind.connections())),
        ("rounds", Value::UInt(rounds.len() as u64)),
        (
            "round_wall_s",
            Value::Arr(
                rounds
                    .iter()
                    .map(|r| Value::Float(r.time().wall_s))
                    .collect(),
            ),
        ),
        ("setups", Value::UInt(setups.len() as u64)),
        ("figures", obj(figures)),
        (
            "failures",
            Value::Arr(
                failures
                    .iter()
                    .take(20)
                    .map(|f| Value::Str(f.clone()))
                    .collect(),
            ),
        ),
    ]))
}

fn per_layer(
    ctx: &Ctx,
    rounds: &[Round],
    traced: &[run::Traced],
    tracer: &trace::Tracer,
    acc: &trace::LayerAcc,
) -> Result<Value, String> {
    let mut m = Metrics::new(&PER_LAYER);
    let per = |(calls, ns): (u64, u64), scale: f64| ratio(ns as f64, calls as f64) / scale;
    m.set("workloads.kernel_us", per(acc.kernel, 1e3));
    m.set("gpu_sim.new_us", per(acc.gpu_new, 1e3));
    m.set(
        "gpu_sim.ns_per_cycle",
        ratio(acc.run_ns as f64, acc.cycles as f64),
    );
    m.set(
        "gpu_sim.ns_per_stepped_cycle",
        ratio(acc.run_ns as f64, (acc.cycles - acc.skipped) as f64),
    );
    let job_ns = acc.job_ns as f64;
    m.set(
        "gpu_sim.self_frac",
        ratio(tracer.self_ns_of("gpu_sim.run") as f64, job_ns),
    );
    m.set(
        "gpu_sim.ff_skipped_frac",
        ratio(acc.skipped as f64, acc.cycles as f64),
    );
    let n_rounds = traced.len() as f64;
    m.set("gpu_sim.ff_jumps", acc.jumps as f64 / n_rounds);
    m.set("gpu_sim.ring_grows", acc.ring_grows as f64 / n_rounds);
    for (class, h) in [("caps", acc.caps), ("base", acc.base)] {
        let key = |k: &str| format!("prefetch.{class}.{k}");
        m.set(&key("on_demand_calls"), h.on_demand_calls as f64 / n_rounds);
        m.set(
            &key("on_demand_ns"),
            per((h.on_demand_calls, h.on_demand_ns), 1.0),
        );
        m.set(
            &key("on_l1_miss_calls"),
            h.on_l1_miss_calls as f64 / n_rounds,
        );
        m.set(
            &key("on_l1_miss_ns"),
            per((h.on_l1_miss_calls, h.on_l1_miss_ns), 1.0),
        );
        m.set(&key("requests_out"), h.requests_out as f64 / n_rounds);
        m.set(
            &key("host_frac"),
            ratio((h.on_demand_ns + h.on_l1_miss_ns) as f64, job_ns),
        );
    }
    sim_counters(ctx, &mut m, &rounds[0].cold().records);

    let first = &rounds[0];
    let mut farm = caps_metrics::FarmStats::default();
    for p in &first.passes {
        farm.jobs += p.farm.jobs;
        farm.sims += p.farm.sims;
        farm.mem_hits += p.farm.mem_hits;
        farm.disk_hits += p.farm.disk_hits;
        farm.dedup += p.farm.dedup;
    }
    m.set("farm.jobs", farm.jobs as f64);
    m.set("farm.sims", farm.sims as f64);
    m.set("farm.mem_hits", farm.mem_hits as f64);
    m.set("farm.disk_hits", farm.disk_hits as f64);
    m.set("farm.dedup", farm.dedup as f64);
    m.set("cache.digest_us", per(acc.digest, 1e3));
    m.set("cache.lookup_mem_us", per(acc.lookup_mem, 1e3));
    m.set("cache.lookup_disk_us", per(acc.lookup_disk, 1e3));
    m.set("cache.insert_us", per(acc.insert, 1e3));
    m.set("cache.entry_bytes", first.entry_bytes);
    m.set(
        "cache.hit_rate",
        ratio(farm.hits() as f64, farm.jobs as f64),
    );
    m.set(
        "json.encode_us",
        per((acc.json.records, acc.json.encode_ns), 1e3),
    );
    m.set(
        "json.decode_us",
        per((acc.json.records, acc.json.decode_ns), 1e3),
    );
    m.set(
        "json.record_bytes",
        ratio(acc.json.bytes as f64, acc.json.records as f64),
    );
    m.set(
        "service.proto_encode_us",
        per((acc.proto.records, acc.proto.encode_ns), 1e3),
    );
    m.set(
        "service.proto_decode_us",
        per((acc.proto.records, acc.proto.decode_ns), 1e3),
    );
    m.set(
        "service.line_bytes",
        ratio(acc.proto.bytes as f64, acc.proto.records as f64),
    );

    // The record stream the caller reads: the socket on corun-served,
    // the farm's streaming callback elsewhere.
    let first_ms: Vec<f64> = rounds.iter().map(|r| r.cold().gaps_ms[0].1).collect();
    m.set("service.first_record_ms", probe::median(&first_ms));
    let gap_us: Vec<f64> = rounds
        .iter()
        .map(|r| {
            let last = r.passes.last().expect("a measured round has passes");
            probe::median(&last.gaps_ms[1..].iter().map(|g| g.1).collect::<Vec<_>>()) * 1e3
        })
        .collect();
    m.set("service.record_gap_us", probe::median(&gap_us));

    let untraced: f64 = traced.iter().map(|t| t.untraced_wall_s).sum();
    let with_trace: f64 = traced.iter().map(|t| t.traced_wall_s).sum();
    m.set("trace.overhead_frac", with_trace / untraced - 1.0);
    m.to_value()
}

/// Simulated counters summed over one cold pass. Deterministic: a
/// change that only speeds up the simulator leaves every one unchanged.
fn sim_counters(ctx: &Ctx, m: &mut Metrics, cold: &[Option<RunRecord>]) {
    let (jobs, keys) = ctx.jobs();
    let records: Vec<(usize, &RunRecord)> = cold
        .iter()
        .enumerate()
        .filter_map(|(i, r)| Some((i, r.as_ref()?)))
        .collect();
    let sum = |f: fn(&RunRecord) -> u64| records.iter().map(|(_, r)| f(r)).sum::<u64>() as f64;
    // Stall cycles are summed per SM; normalize by SM-cycles.
    let sm_cycles: u64 = records
        .iter()
        .map(|&(i, r)| r.stats.cycles * jobs[i].spec.base_config.num_sms as u64)
        .sum();
    m.set(
        "sim.sm.stall_frac",
        ratio(sum(|r| r.stats.stall_cycles), sm_cycles as f64),
    );
    m.set("sim.sm.mem_wait_cycles", sum(|r| r.stats.mem_wait_cycles));
    m.set(
        "sim.l1d.miss_rate",
        ratio(
            sum(|r| r.stats.l1d_demand_misses),
            sum(|r| r.stats.l1d_demand_accesses),
        ),
    );
    m.set("sim.l1d.mshr_merges", sum(|r| r.stats.l1d_mshr_merges));
    m.set(
        "sim.l1d.reservation_fails",
        sum(|r| r.stats.l1d_reservation_fails),
    );
    m.set("sim.icnt.stalls", sum(|r| r.stats.icnt_stalls));
    m.set(
        "sim.links.credit_stalls",
        sum(|r| r.links.total().credit_stalls),
    );
    m.set(
        "sim.l2.hit_rate",
        ratio(sum(|r| r.stats.l2_hits), sum(|r| r.stats.l2_accesses)),
    );
    m.set(
        "sim.dram.row_hit_rate",
        ratio(
            sum(|r| r.stats.dram_row_hits),
            sum(|r| r.stats.dram_row_hits + r.stats.dram_row_misses),
        ),
    );
    m.set("sim.dram.queue_stalls", sum(|r| r.stats.dram_queue_stalls));
    m.set("sim.dram.reads", sum(|r| r.stats.dram_reads));
    let issued = sum(|r| r.stats.prefetch_issued);
    m.set("sim.prefetch.issued", issued);
    m.set(
        "sim.prefetch.accuracy",
        ratio(
            sum(|r| r.stats.prefetch_useful + r.stats.prefetch_late),
            issued,
        ),
    );
    m.set(
        "sim.prefetch.coverage",
        ratio(issued, sum(|r| r.stats.l1d_demand_accesses)),
    );
    m.set("sim.prefetch.late", sum(|r| r.stats.prefetch_late));
    m.set(
        "sim.prefetch.early_evicted",
        sum(|r| r.stats.prefetch_early_evicted),
    );
    m.set("sim.prefetch.dropped", sum(|r| r.stats.prefetch_dropped));
    m.set(
        "sim.prefetch.mispredicts",
        sum(|r| r.stats.prefetch_mispredicts),
    );
    m.set("sim.prefetch.wakeups", sum(|r| r.stats.prefetch_wakeups));

    // Slowdown of each tenant against its solo IPC in the co-run table.
    let mut slowdown_max: f64 = 0.0;
    if ctx.kind == Kind::CorunServed {
        for &(i, rec) in &records {
            let (pairing, policy) = &keys[i];
            if let Some(entry) = ctx.corun.get(pairing, policy, &rec.engine) {
                for (k, t) in rec.per_kernel.iter().zip(&entry.tenants) {
                    slowdown_max = slowdown_max.max(ratio(t.solo_ipc, k.ipc()));
                }
            }
        }
    }
    m.set("sim.tenant.slowdown_max", slowdown_max);
    m.set(
        "sim.tenant.l2_misses",
        records
            .iter()
            .flat_map(|(_, r)| &r.per_kernel)
            .map(|k| k.l2_misses)
            .sum::<u64>() as f64,
    );
}

fn write_spans(args: &Args, tracer: &trace::Tracer) -> Result<(), String> {
    let dir = Path::new(".bench_out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "spans-{}-seed{}.jsonl",
        args.kind.name(),
        args.seed
    ));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("perfbench: spans written to {}", path.display());
    Ok(())
}
