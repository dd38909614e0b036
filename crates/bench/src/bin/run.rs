//! General-purpose runner: simulate one (benchmark, engine) pair and
//! print the full statistics.
//!
//! ```text
//! run <BENCH> <ENGINE> [--small] [--ctas N] [--kepler]
//!   BENCH:  CP LPS BPR HSP MRQ STE CNV HST JC1 FFT SCN MM PVR CCL BFS KM
//!   ENGINE: base intra inter mta nlp lap orch caps caps-nw
//!           caps@lrr caps@tlv caps@gto
//! run --bench-throughput [--small] [--out PATH] [--workloads A,B,..]
//! ```
//!
//! `--bench-throughput` times the full workload suite (BASE and CAPS,
//! naive and wake-driven stepping), asserts both modes produce the same
//! stats, reports simulated cycles/sec and host seconds per run, and
//! writes the results to `BENCH_throughput.json` (override with `--out`)
//! so the simulator's perf trajectory is tracked across PRs.
//! `--workloads` restricts the sweep to a comma-separated list of
//! benchmark abbreviations (the CI smoke job runs `--workloads SCN,MRQ
//! --small`).
//!
//! ```text
//! run --tenants A+B[,C+D..] [--small] [--out PATH]
//! ```
//!
//! `--tenants` runs the multi-tenant co-run interference table: each
//! `+`-joined group shares the machine as co-resident kernel contexts
//! under every partitioning policy (exclusive, sm-split, shared), for
//! BASE and CAPS. Each co-run executes under both stepping modes (naive
//! and wake-driven) and the binary exits non-zero if any machine or
//! per-tenant counter differs between them. The table — per-tenant IPC
//! solo vs co-resident — is written to `TENANTS_corun.json` (override
//! with `--out`).

use std::time::Instant;

use caps_bench::cli::Args;
use caps_gpu_sim::config::GpuConfig;
use caps_json::{obj, Value};
use caps_metrics::{run_one, run_one_with_fast_forward, Engine, Partitioning, RunSpec, Table};
use caps_workloads::{all_workloads, Scale, Workload};

/// Parse the `--tenants` pairing list: `SCN+MRQ,MM+BFS` → groups of
/// co-resident workloads (2..=4 tenants each).
fn parse_pairings(args: &Args, list: &str) -> Vec<Vec<Workload>> {
    list.split(',')
        .map(|group| {
            let tenants: Vec<Workload> = group
                .split('+')
                .map(|abbr| {
                    caps_bench::parse_workload(abbr)
                        .unwrap_or_else(|e| args.fail(format!("{e} (in --tenants)")))
                })
                .collect();
            if tenants.len() < 2 || tenants.len() > caps_gpu_sim::types::MAX_TENANTS {
                args.fail(format!(
                    "--tenants group {group:?} must name 2..={} workloads",
                    caps_gpu_sim::types::MAX_TENANTS
                ));
            }
            tenants
        })
        .collect()
}

fn bench_tenants(args: &Args, list: &str) {
    let scale = args.scale();
    let scale_str = if scale == Scale::Small { "small" } else { "full" };
    let out = args.value("--out").unwrap_or("TENANTS_corun.json");
    let pairings = parse_pairings(args, list);
    let engines = [Engine::Baseline, Engine::Caps];
    // The stepping modes every co-run must agree under:
    // (label, fast_forward).
    let modes: [(&str, bool); 2] = [("naive", false), ("fast", true)];

    // Solo baselines: one run per (workload, engine) across all
    // pairings, reused for every policy row.
    let mut solo_ipc: std::collections::HashMap<(String, String), f64> =
        std::collections::HashMap::new();
    for group in &pairings {
        for &w in group {
            for &e in &engines {
                let mut spec = RunSpec::paper(w, e);
                spec.scale = scale;
                solo_ipc
                    .entry((w.abbr().to_string(), e.label().to_string()))
                    .or_insert_with(|| run_one(&spec).ipc());
            }
        }
    }

    let mut entries = Vec::new();
    let mut drift = Vec::new();
    let mut table = Table::new(&[
        "pairing", "policy", "eng", "tenant", "solo IPC", "co IPC", "no-thr IPC", "slowdown",
        "cycles",
    ]);
    for group in &pairings {
        let pairing = group
            .iter()
            .map(|w| w.abbr())
            .collect::<Vec<_>>()
            .join("+");
        for policy in Partitioning::all() {
            for &engine in &engines {
                let mut spec = RunSpec::paper(group[0], engine)
                    .co_resident(group[1..].to_vec(), policy);
                spec.scale = scale;
                // Cross-mode agreement: machine stats and per-tenant
                // stats must be bit-identical under both stepping modes.
                let mut records = modes
                    .iter()
                    .map(|&(_, ff)| run_one_with_fast_forward(&spec, ff));
                let reference = records.next().expect("naive mode");
                let mut mode_cycles = vec![("naive", reference.stats.cycles)];
                for (rec, &(label, _)) in records.zip(&modes[1..]) {
                    mode_cycles.push((label, rec.stats.cycles));
                    if rec.stats != reference.stats || rec.per_kernel != reference.per_kernel {
                        drift.push(format!(
                            "{pairing}/{policy}/{}: {label} engine diverged from naive",
                            engine.label()
                        ));
                    }
                }
                // The no-throttle contention baseline: same co-run with
                // the interference monitor observing but never acting,
                // so the table shows what the CIAO-style throttle buys
                // the latency-sensitive tenant.
                let mut base_spec = spec.clone();
                if let caps_metrics::Tenancy::Co { throttle, .. } = &mut base_spec.tenancy {
                    *throttle = false;
                }
                let unthrottled = run_one(&base_spec);
                let mut tenants = Vec::new();
                for ((&w, k), uk) in group
                    .iter()
                    .zip(&reference.per_kernel)
                    .zip(&unthrottled.per_kernel)
                {
                    let solo = solo_ipc[&(w.abbr().to_string(), engine.label().to_string())];
                    let co = k.ipc();
                    table.row(vec![
                        pairing.clone(),
                        policy.name().to_string(),
                        engine.label().to_string(),
                        w.abbr().to_string(),
                        format!("{solo:.3}"),
                        format!("{co:.3}"),
                        format!("{:.3}", uk.ipc()),
                        format!("{:.2}x", solo / co.max(1e-12)),
                        format!("{}", reference.stats.cycles),
                    ]);
                    tenants.push(obj(vec![
                        ("workload", Value::Str(w.abbr().to_string())),
                        ("solo_ipc", Value::Float(solo)),
                        ("co_ipc", Value::Float(co)),
                        ("co_ipc_unthrottled", Value::Float(uk.ipc())),
                        ("slowdown", Value::Float(solo / co.max(1e-12))),
                        ("instructions", Value::UInt(k.instructions)),
                        ("ctas_completed", Value::UInt(k.ctas_completed)),
                        ("l2_misses", Value::UInt(k.l2_misses)),
                        ("dram_reads", Value::UInt(k.dram_reads)),
                        ("start_cycle", Value::UInt(k.start_cycle)),
                        ("finish_cycle", Value::UInt(k.finish_cycle)),
                    ]));
                }
                entries.push(obj(vec![
                    ("pairing", Value::Str(pairing.clone())),
                    ("policy", Value::Str(policy.name().to_string())),
                    ("engine", Value::Str(engine.label().to_string())),
                    ("scale", Value::Str(scale_str.to_string())),
                    ("cycles", Value::UInt(reference.stats.cycles)),
                    (
                        "cycles_unthrottled",
                        Value::UInt(unthrottled.stats.cycles),
                    ),
                    (
                        "cycles_by_engine",
                        obj(mode_cycles
                            .iter()
                            .map(|&(label, c)| (label, Value::UInt(c)))
                            .collect()),
                    ),
                    ("ring_grows", Value::UInt(reference.links.total().grows)),
                    ("tenants", Value::Arr(tenants)),
                ]));
            }
        }
    }
    println!("{}", table.render());
    let doc = obj(vec![
        ("bench", Value::Str("tenants_corun".to_string())),
        ("scale", Value::Str(scale_str.to_string())),
        ("host", caps_bench::host_json(1)),
        ("entries", Value::Arr(entries)),
    ]);
    std::fs::write(out, doc.pretty()).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("wrote {out}");
    if !drift.is_empty() {
        for d in &drift {
            eprintln!("DETERMINISM DRIFT — {d}");
        }
        std::process::exit(1);
    }
    println!("determinism: all co-runs bit-identical across stepping engines");
}

fn bench_throughput(args: &Args) {
    let scale = args.scale();
    let out = args.value("--out").unwrap_or("BENCH_throughput.json");
    let workloads = args.workloads();
    let reps = 7;
    let scale_str = if scale == Scale::Small { "small" } else { "full" };
    let engines = [Engine::Baseline, Engine::Caps];
    // Best-of-N with the reps spread across whole-suite passes (pass 1
    // times every cell once, then pass 2, ...). Two levels of
    // interleaving defend the naive-vs-wake ratios against host-speed
    // variance: the two modes of a pair sample the same short-term
    // drift, and a pair's reps land minutes apart so a multi-second
    // throttle burst (shared cores, CI quotas) cannot poison all reps
    // of one cell.
    type BestCell = Option<(caps_metrics::RunRecord, f64)>;
    let mut best: Vec<Vec<[BestCell; 2]>> =
        vec![vec![[None, None]; engines.len()]; workloads.len()];
    for pass in 0..reps {
        for (wi, &workload) in workloads.iter().enumerate() {
            for (ei, &engine) in engines.iter().enumerate() {
                let mut spec = RunSpec::paper(workload, engine);
                spec.scale = scale;
                for (slot, fast_forward) in best[wi][ei].iter_mut().zip([false, true]) {
                    let t0 = Instant::now();
                    let rec = run_one_with_fast_forward(&spec, fast_forward);
                    let secs = t0.elapsed().as_secs_f64();
                    if slot.as_ref().is_none_or(|(_, b)| secs < *b) {
                        *slot = Some((rec, secs));
                    }
                }
            }
        }
        eprintln!("pass {}/{reps} done", pass + 1);
    }
    let mut entries = Vec::new();
    println!(
        "{:<5} {:<5} {:>12} {:>11} {:>11} {:>14} {:>14} {:>8}",
        "bench", "eng", "sim cycles", "naive s", "wake s", "naive cyc/s", "wake cyc/s", "speedup"
    );
    for cells in best.iter().flatten() {
        let [(naive_rec, naive_s), (wake_rec, wake_s)] = cells.each_ref().map(|slot| {
            let (rec, secs) = slot.as_ref().expect("reps > 0");
            (rec, *secs)
        });
        assert_eq!(
            naive_rec.stats, wake_rec.stats,
            "wake-driven stepping diverged on {} / {}",
            naive_rec.workload, naive_rec.engine
        );
        let cycles = wake_rec.stats.cycles;
        let speedup = naive_s / wake_s;
        println!(
            "{:<5} {:<5} {:>12} {:>11.4} {:>11.4} {:>14.0} {:>14.0} {:>7.2}x",
            naive_rec.workload,
            naive_rec.engine,
            cycles,
            naive_s,
            wake_s,
            cycles as f64 / naive_s,
            cycles as f64 / wake_s,
            speedup
        );
        entries.push(obj(vec![
            ("workload", Value::Str(naive_rec.workload.clone())),
            ("engine", Value::Str(naive_rec.engine.clone())),
            ("scale", Value::Str(scale_str.to_string())),
            ("simulated_cycles", Value::UInt(cycles)),
            ("naive_host_seconds", Value::Float(naive_s)),
            ("fast_host_seconds", Value::Float(wake_s)),
            (
                "naive_cycles_per_sec",
                Value::Float(cycles as f64 / naive_s),
            ),
            ("fast_cycles_per_sec", Value::Float(cycles as f64 / wake_s)),
            ("speedup", Value::Float(speedup)),
            // Growth-valve activations across the whole memory path:
            // 0 = no ring grew past its reserved bound.
            ("ring_grows", Value::UInt(wake_rec.links.total().grows)),
        ]));
    }
    let best = entries
        .iter()
        .filter_map(|e| e.get("speedup").and_then(|v| v.as_f64().ok()))
        .fold(0.0_f64, f64::max);
    let doc = obj(vec![
        ("bench", Value::Str("sim_throughput".to_string())),
        (
            "timing",
            Value::Str(format!("best of {reps} whole-suite passes, modes interleaved")),
        ),
        ("host", caps_bench::host_json(1)),
        ("best_speedup", Value::Float(best)),
        ("entries", Value::Arr(entries)),
    ]);
    std::fs::write(out, doc.pretty()).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("\nwrote {out} (best wake-driven speedup {best:.2}x)");
}

fn main() {
    let usage = format!(
        "usage: run <BENCH> <ENGINE> [--small] [--ctas N] [--kepler]\n\
         \x20      run --bench-throughput [--small] [--out PATH] [--workloads A,B,..]\n\
         \x20      run --tenants A+B[,C+D..] [--small] [--out PATH]\n\
         BENCH:  {}\n\
         ENGINE: base intra inter mta nlp lap orch caps caps-nw caps@lrr caps@tlv caps@gto",
        all_workloads()
            .iter()
            .map(|w| w.abbr())
            .collect::<Vec<_>>()
            .join(" ")
    );
    let args = Args::parse(
        &usage,
        &["--small", "--kepler", "--bench-throughput"],
        &["--ctas", "--out", "--workloads", "--tenants"],
    );
    if args.flag("--bench-throughput") {
        args.positional(0);
        bench_throughput(&args);
        return;
    }
    if let Some(list) = args.value("--tenants") {
        args.positional(0);
        bench_tenants(&args, list);
        return;
    }
    let [bench, engine] = args.positional(2) else {
        unreachable!("positional(2) returns two arguments")
    };
    let workload = caps_bench::parse_workload(bench).unwrap_or_else(|e| args.fail(e));
    let engine = match engine.to_ascii_lowercase().as_str() {
        "base" | "baseline" => Engine::Baseline,
        "intra" => Engine::Intra,
        "inter" => Engine::Inter,
        "mta" => Engine::Mta,
        "nlp" => Engine::Nlp,
        "lap" => Engine::Lap,
        "orch" => Engine::Orch,
        "caps" => Engine::Caps,
        "caps-nw" => Engine::CapsNoWakeup,
        "caps@lrr" => Engine::CapsOnLrr,
        "caps@tlv" => Engine::CapsOnTlv,
        "caps@gto" => Engine::CapsOnPasGto,
        other => args.fail(format!("unknown engine {other:?}")),
    };
    let mut spec = RunSpec::paper(workload, engine);
    spec.scale = args.scale();
    if args.flag("--kepler") {
        spec.base_config = GpuConfig::kepler_like();
    }
    if let Some(n) = args.count("--ctas") {
        spec.base_config.max_ctas_per_sm = n;
        if let Err(why) = spec.base_config.check() {
            args.fail(format!("--ctas {n}: {why}"));
        }
    }
    let r = run_one(&spec);
    let s = &r.stats;
    println!("{} under {}\n", r.workload, r.engine);
    let mut t = Table::new(&["metric", "value"]);
    let rows: Vec<(&str, String)> = vec![
        ("cycles", format!("{}", s.cycles)),
        ("warp instructions", format!("{}", s.warp_instructions)),
        ("IPC", format!("{:.3}", s.ipc())),
        ("CTAs completed", format!("{}", s.ctas_completed)),
        ("L1D accesses", format!("{}", s.l1d_demand_accesses)),
        (
            "L1D miss rate",
            format!("{:.1}%", s.l1d_miss_rate() * 100.0),
        ),
        (
            "L2 hit rate",
            format!(
                "{:.1}%",
                100.0 * s.l2_hits as f64 / s.l2_accesses.max(1) as f64
            ),
        ),
        (
            "DRAM reads / writes",
            format!("{} / {}", s.dram_reads, s.dram_writes),
        ),
        (
            "DRAM row-hit rate",
            format!(
                "{:.1}%",
                100.0 * s.dram_row_hits as f64
                    / (s.dram_row_hits + s.dram_row_misses).max(1) as f64
            ),
        ),
        ("prefetches issued", format!("{}", s.prefetch_issued)),
        ("prefetch coverage", format!("{:.1}%", s.coverage() * 100.0)),
        ("prefetch accuracy", format!("{:.1}%", s.accuracy() * 100.0)),
        (
            "early-prefetch ratio",
            format!("{:.1}%", s.early_prefetch_ratio() * 100.0),
        ),
        (
            "prefetch distance",
            format!("{:.0} cycles", s.mean_prefetch_distance()),
        ),
        ("prefetch wake-ups", format!("{}", s.prefetch_wakeups)),
        ("mispredicts", format!("{}", s.prefetch_mispredicts)),
        ("energy", format!("{:.3} mJ", r.energy.total_mj())),
    ];
    for (k, v) in rows {
        t.row(vec![k.to_string(), v]);
    }
    println!("{}", t.render());
}
