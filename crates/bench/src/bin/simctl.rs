//! Client for the simulation service: submit the standard sweep to a
//! running `simd`, stream results, query server state.
//!
//! ```text
//! simctl [--socket PATH] [--small] [--workloads A,B,..] [--jobs N]
//!        [--out PATH] [--stats PATH] [--prune-against PATH] [--verbose]
//! simctl --status | --query-stats | --shutdown  [--socket PATH]
//! simctl --push-prune ARCHIVE                   [--socket PATH]
//! ```
//!
//! The sweep mode takes exactly the `farm` flag surface and produces
//! byte-identical `--out` summaries: it drives the same
//! `caps_bench::farmcli::run_axes` axis loop, with the process-wide
//! remote hook routing every batch through the server named by
//! `--socket` / `GPU_SIM_SOCKET`. Records stream back as the server
//! completes them (`--verbose` prints each one); the `--stats` report's
//! hit/sim/dedup counters are the server's, observed over the wire. If
//! the server is unreachable the farm transparently falls back to local
//! execution (with a warning), so `simctl` degrades to `farm`.
//!
//! `--push-prune` loads a results archive — a `farm --stats` file, a
//! `BENCH_farm.json`, or a result-cache directory — and ships its job
//! keys into the *server-side* prune set: every future submit (from any
//! client) skips those points. This is the wire form of the archive
//! exchange that `farm --prune-against` does locally.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use caps_bench::farmcli::{
    flag_value, parse_jobs, parse_prune, parse_scale, parse_workloads, print_tables, run_axes,
    stats_json, sweep_summary_json,
};
use caps_json::Value;
use caps_metrics::{CacheMode, Farm, PruneSet, ResultCache};
use caps_service::{client, Client, SOCKET_ENV};

fn usage() -> ! {
    eprintln!(
        "usage: simctl [--socket PATH] [--small] [--workloads A,B,..] [--jobs N]\n\
         \x20             [--out PATH] [--stats PATH] [--prune-against PATH] [--verbose]\n\
         \x20      simctl --status | --query-stats | --shutdown  [--socket PATH]\n\
         \x20      simctl --push-prune ARCHIVE                   [--socket PATH]\n\
         default socket: $GPU_SIM_SOCKET, else .sim-service.sock"
    );
    std::process::exit(2);
}

fn socket_path(args: &[String]) -> PathBuf {
    PathBuf::from(
        flag_value(args, "--socket")
            .or_else(|| std::env::var(SOCKET_ENV).ok().filter(|s| !s.is_empty()))
            .unwrap_or_else(|| ".sim-service.sock".to_string()),
    )
}

fn connect(socket: &Path) -> Client {
    Client::connect_retry(socket, Duration::from_secs(2)).unwrap_or_else(|e| {
        eprintln!("simctl: {}: {e}", socket.display());
        std::process::exit(1);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
    }
    let socket = socket_path(&args);

    if args.iter().any(|a| a == "--status") {
        let (proto, workers, connections, batches, jobs_done) =
            connect(&socket).status().unwrap_or_else(|e| {
                eprintln!("simctl: status: {e}");
                std::process::exit(1);
            });
        println!(
            "server at {}: proto {proto}, {workers} workers, {connections} connection(s), \
             {batches} batch(es) in flight, {jobs_done} jobs done",
            socket.display()
        );
        return;
    }
    if args.iter().any(|a| a == "--query-stats") {
        let (farm, cache) = connect(&socket).server_stats().unwrap_or_else(|e| {
            eprintln!("simctl: stats: {e}");
            std::process::exit(1);
        });
        // The raw reply document is the scriptable surface; print it.
        println!(
            "{}",
            caps_service::Response::Stats { farm, cache }
                .to_value()
                .pretty()
        );
        return;
    }
    if args.iter().any(|a| a == "--shutdown") {
        connect(&socket).shutdown().unwrap_or_else(|e| {
            eprintln!("simctl: shutdown: {e}");
            std::process::exit(1);
        });
        println!("server at {} is shutting down", socket.display());
        return;
    }
    if let Some(archive) = flag_value(&args, "--push-prune") {
        let set = PruneSet::load(Path::new(&archive)).unwrap_or_else(|e| {
            eprintln!("--push-prune {archive}: {e}");
            std::process::exit(2);
        });
        let total = connect(&socket).push_prune(set.keys()).unwrap_or_else(|e| {
            eprintln!("simctl: push-prune: {e}");
            std::process::exit(1);
        });
        println!(
            "pushed {} keys from {archive}; server prune set now covers {total}",
            set.len()
        );
        return;
    }

    // Sweep mode: same axis loop as `farm`, batches routed through the
    // server. The local cache is Off — memoization lives server-side —
    // and only matters if the server is down and the farm falls back.
    let scale = parse_scale(&args);
    let workloads = parse_workloads(&args);
    let jobs = parse_jobs(&args);
    let prune = parse_prune(&args);
    let verbose = args.iter().any(|a| a == "--verbose");

    let observer = verbose.then(|| {
        std::sync::Arc::new(|i: usize, rec: &caps_metrics::RunRecord| {
            eprintln!(
                "record[{i}]: {} {} ({} cycles)",
                rec.workload, rec.engine, rec.stats.cycles
            );
        }) as std::sync::Arc<client::RecordObserver>
    });
    client::install_remote_hook_observed(socket.clone(), observer);
    let cache = ResultCache::new(CacheMode::Off, ".sim-cache-unused");
    let farm = Farm::new(&cache, jobs);

    let t0 = Instant::now();
    let (results, stats, job_keys) = run_axes(&farm, &workloads, scale, &prune);
    let seconds = t0.elapsed().as_secs_f64();
    print_tables(&results);
    eprintln!(
        "{:.3}s  jobs={} sims={} mem={} disk={} dedup={} pruned={}  (server hit rate {:.1}%, socket {})",
        seconds,
        stats.jobs,
        stats.sims,
        stats.mem_hits,
        stats.disk_hits,
        stats.dedup,
        stats.pruned,
        stats.hit_rate() * 100.0,
        socket.display(),
    );

    if let Some(out) = flag_value(&args, "--out") {
        std::fs::write(&out, sweep_summary_json(&results))
            .unwrap_or_else(|e| panic!("write {out}: {e}"));
        println!("wrote {out}");
    }
    if let Some(path) = flag_value(&args, "--stats") {
        let mut doc = stats_json(&stats, &cache, seconds, &job_keys);
        if let Value::Obj(fields) = &mut doc {
            fields.insert(0, ("host".to_string(), caps_bench::host_json(jobs)));
        }
        std::fs::write(&path, doc.pretty()).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
    }
}
