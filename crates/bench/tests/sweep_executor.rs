//! `run_axes` gives the same sweep whichever executor runs its batches:
//! a simulation server reached through a `Client`, a local `Farm`, or
//! the local fallback a `Served` executor takes when no server listens.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use caps_bench::cli::{run_axes, sweep_summary_json, Served};
use caps_metrics::{
    standard_axes, sweep_jobs, CacheMode, Engine, Farm, FarmStats, PruneSet, ResultCache,
};
use caps_service::{Client, Server, ServerConfig};
use caps_workloads::{Scale, Workload};

const WORKLOADS: [Workload; 2] = [Workload::Scn, Workload::Jc1];

/// A unique short directory per test (sun_path is ~108 bytes).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("caps-exec-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// An archive covering the first axis's first baseline job, so the
/// client-side prune path is exercised.
fn one_key_prune() -> PruneSet {
    let (_, points) = standard_axes().into_iter().next().unwrap();
    let jobs = sweep_jobs(&points, &WORKLOADS, Engine::Caps, Scale::Small);
    let mut prune = PruneSet::new();
    prune.insert(jobs[0].digest());
    prune
}

/// Summary, counters and job keys of the sweep through a `Served`
/// executor aimed at `socket`, or through a plain local farm for `None`.
fn sweep(socket: Option<&Path>, prune: &PruneSet) -> (String, FarmStats, Vec<u128>) {
    // An `Off` cache never touches its directory.
    let cache = ResultCache::new(CacheMode::Off, std::env::temp_dir().join("caps-exec-off"));
    let farm = Farm::new(&cache, 2);
    let (results, stats, keys) = match socket {
        Some(socket) => {
            let mut served = Served::connect(socket, farm, false);
            run_axes(&WORKLOADS, Scale::Small, |jobs| served.run(jobs, prune))
        }
        None => run_axes(&WORKLOADS, Scale::Small, |jobs| {
            farm.run_pruned(jobs, prune)
        }),
    };
    (sweep_summary_json(&results), stats, keys)
}

#[test]
fn client_and_local_farm_sweeps_are_byte_identical() {
    let dir = scratch("served");
    let socket = dir.join("sock");
    let server = Arc::new(Server::new(
        ServerConfig {
            socket: socket.clone(),
            workers: 2,
        },
        ResultCache::new(CacheMode::ReadWrite, dir.join("cache")),
    ));
    let serving = {
        let server = server.clone();
        std::thread::spawn(move || server.serve().expect("serve"))
    };
    // Wait for the bind; the status probe also proves the server is up.
    let mut probe = Client::connect_retry(&socket, Duration::from_secs(10)).expect("connect");
    probe.status().expect("status");

    let prune = one_key_prune();
    let (served, served_stats, served_keys) = sweep(Some(&socket), &prune);
    let (local, local_stats, local_keys) = sweep(None, &prune);

    // The batches really went over the socket.
    let (server_total, _) = probe.server_stats().expect("stats");
    assert_eq!(server_total.jobs, served_stats.jobs - served_stats.pruned);
    assert!(server_total.sims > 0);

    assert_eq!(served, local, "sweep summaries differ");
    assert!(served.contains("(pruned)"), "the archive pruned a point");
    assert_eq!(served_keys, local_keys);
    assert_eq!(served_stats.jobs, local_stats.jobs);
    assert_eq!(served_stats.pruned, local_stats.pruned);
    assert_eq!(local_stats.pruned, 1);

    server.request_shutdown();
    serving.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unreachable_server_falls_back_to_the_same_bytes() {
    let dir = scratch("fallback");
    let prune = one_key_prune();
    let (served, served_stats, served_keys) = sweep(Some(&dir.join("no-server")), &prune);
    let (local, local_stats, local_keys) = sweep(None, &prune);
    assert_eq!(served, local);
    assert_eq!(served_keys, local_keys);
    assert_eq!(served_stats, local_stats, "both ran on a local farm");
    let _ = std::fs::remove_dir_all(&dir);
}
