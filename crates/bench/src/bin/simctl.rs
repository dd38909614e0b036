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
//! `caps_bench::cli::run_axes` axis loop, with a [`Served`] executor
//! sending every batch to the server named by `--socket` (default
//! `.sim-service.sock`), minus the jobs its own `--prune-against`
//! archive covers. Records stream
//! back as the server completes them (`--verbose` prints each one); the
//! `--stats` report's hit/sim/dedup counters are the server's, observed
//! over the wire. If the server is unreachable, the batches run on a
//! local farm instead (with a warning), so `simctl` degrades to `farm`.
//!
//! `--push-prune` loads a results archive — a `farm --stats` file or a
//! result-cache directory — and ships its job keys into the
//! *server-side* prune set: every future submit (from any client) skips
//! those points. This is the wire form of the archive
//! exchange that `farm --prune-against` does locally.

use std::path::Path;
use std::time::Duration;

use caps_bench::cli::{sweep_and_report, Args, Served};
use caps_metrics::{CacheMode, Farm, PruneSet, ResultCache};
use caps_service::Client;

fn connect(socket: &Path) -> Client {
    Client::connect_retry(socket, Duration::from_secs(2)).unwrap_or_else(|e| {
        eprintln!("simctl: {}: {e}", socket.display());
        std::process::exit(1);
    })
}

fn main() {
    let args = Args::parse(
        "usage: simctl [--socket PATH] [--small] [--workloads A,B,..] [--jobs N]\n\
         \x20             [--out PATH] [--stats PATH] [--prune-against PATH] [--verbose]\n\
         \x20      simctl --status | --query-stats | --shutdown  [--socket PATH]\n\
         \x20      simctl --push-prune ARCHIVE                   [--socket PATH]\n\
         default socket: .sim-service.sock",
        &[
            "--small",
            "--verbose",
            "--status",
            "--query-stats",
            "--shutdown",
        ],
        &[
            "--socket",
            "--workloads",
            "--jobs",
            "--out",
            "--stats",
            "--prune-against",
            "--push-prune",
        ],
    );
    args.positional(0);
    let socket = args.socket();

    if args.flag("--status") {
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
    if args.flag("--query-stats") {
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
    if args.flag("--shutdown") {
        connect(&socket).shutdown().unwrap_or_else(|e| {
            eprintln!("simctl: shutdown: {e}");
            std::process::exit(1);
        });
        println!("server at {} is shutting down", socket.display());
        return;
    }
    if let Some(archive) = args.value("--push-prune") {
        let set = PruneSet::load(Path::new(archive))
            .unwrap_or_else(|e| args.fail(format!("--push-prune {archive}: {e}")));
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

    // Sweep mode: same axis loop as `farm`, batches sent to the server.
    // The local cache is Off — memoization lives server-side — and only
    // matters if the server is down and the batches run locally.
    let prune = args.prune();
    let cache = ResultCache::new(CacheMode::Off, ".sim-cache-unused");
    let fallback = Farm::new(&cache, args.jobs());
    let mut served = Served::connect(&socket, fallback, args.flag("--verbose"));
    let source = format!("server {}", socket.display());
    sweep_and_report(&args, &cache, &source, |jobs| served.run(jobs, &prune));
}
