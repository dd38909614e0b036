//! End-to-end tests over a real Unix socket: a live [`Server`] in a
//! background thread, real [`Client`]s, real (small) simulations.
//!
//! The satellite guarantees exercised here:
//!
//! * malformed and truncated requests, and jobs the simulator cannot
//!   run, earn `error` replies (or a clean connection drop) and never
//!   kill the server;
//! * two concurrent clients multiplex onto one farm and receive
//!   **bit-identical** records — and a cached second pass is
//!   byte-identical to the fresh first pass across the socket;
//! * the `prune` request carries the `PruneSet`/`job_keys` archive
//!   format from a farm-binary-style stats file into the server;
//! * `shutdown`, by request or by [`Server::request_shutdown`], ends a
//!   `serve` blocked in `accept` promptly, drains and unlinks the socket.

use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use caps_metrics::{
    record_to_value, CacheMode, Engine, Farm, FarmJob, Partitioning, ResultCache, RunOpts, RunSpec,
};
use caps_service::{Client, LineReader, Response, Server, ServerConfig, PROTOCOL_VERSION};
use caps_workloads::Workload;

/// Unique short socket/cache paths per test (sun_path is ~108 bytes).
fn scratch(tag: &str) -> (PathBuf, PathBuf) {
    let base = std::env::temp_dir().join(format!("caps-svc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    (base.join("sock"), base.join("cache"))
}

/// Spawn a server; returns a shutdown-and-join handle.
fn start_server(socket: &Path, cache_dir: &Path, workers: usize) -> ServerHandle {
    let server = Arc::new(Server::new(
        ServerConfig {
            socket: socket.to_path_buf(),
            workers,
        },
        ResultCache::new(CacheMode::ReadWrite, cache_dir),
    ));
    let thread = {
        let server = server.clone();
        std::thread::spawn(move || server.serve().expect("serve failed"))
    };
    ServerHandle {
        socket: socket.to_path_buf(),
        server,
        thread: Some(thread),
    }
}

struct ServerHandle {
    socket: PathBuf,
    server: Arc<Server>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    fn connect(&self) -> Client {
        Client::connect_retry(&self.socket, Duration::from_secs(10)).expect("connect")
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.server.request_shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn tiny_jobs() -> Vec<FarmJob> {
    vec![
        FarmJob::new(RunSpec::small(Workload::Jc1, Engine::Baseline)),
        FarmJob::with_opts(
            RunSpec::small(Workload::Jc1, Engine::Caps),
            RunOpts {
                max_cycles: Some(20_000),
                ..RunOpts::default()
            },
        ),
    ]
}

fn record_bytes(records: &[Option<caps_metrics::RunRecord>]) -> Vec<String> {
    records
        .iter()
        .map(|r| record_to_value(r.as_ref().expect("record present")).compact())
        .collect()
}

#[test]
fn malformed_requests_get_error_replies_and_the_connection_survives() {
    let (sock, cache) = scratch("malformed");
    let server = start_server(&sock, &cache, 2);

    // Raw connection: garbage lines, then a valid request on the SAME
    // connection must still work.
    let mut stream = {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            match UnixStream::connect(&sock) {
                Ok(s) => break s,
                Err(e) if std::time::Instant::now() >= deadline => panic!("connect: {e}"),
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    };
    let mut reader = LineReader::new(stream.try_clone().unwrap());
    let mut read_reply = || -> Response {
        let line = loop {
            match reader.read_line() {
                Ok(Some(l)) => break l,
                Ok(None) => panic!("server closed connection"),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => continue,
                Err(e) => panic!("{e}"),
            }
        };
        Response::parse_line(&line).expect("reply parses")
    };

    for garbage in [
        "this is not json\n",
        "{\"op\":\"fly\"}\n",
        "{\"op\":\"submit\",\"jobs\":[{\"spec\":{\"workload\":\"NOPE\"}}]}\n",
        "[]\n",
    ] {
        stream.write_all(garbage.as_bytes()).unwrap();
        match read_reply() {
            Response::Error { message } => {
                assert!(!message.is_empty(), "error reply explains itself")
            }
            other => panic!("expected error reply for {garbage:?}, got {other:?}"),
        }
    }

    // Same connection still serves valid requests.
    stream.write_all(b"{\"op\":\"status\"}\n").unwrap();
    match read_reply() {
        Response::Status { proto, .. } => assert_eq!(proto, PROTOCOL_VERSION),
        other => panic!("expected status, got {other:?}"),
    }

    // A client that sends half a line and hangs up must not hurt the
    // next client.
    {
        let mut half = UnixStream::connect(&sock).unwrap();
        half.write_all(b"{\"op\":\"stat").unwrap();
    } // dropped mid-line

    // Jobs the simulator cannot run are refused by name, and the same
    // client is still served afterwards.
    let spec = RunSpec::small(Workload::Jc1, Engine::Baseline);
    let mut no_mshr = spec.clone();
    no_mshr.base_config.l1d.mshr_entries = 0;
    let mut no_channel = spec.clone();
    no_channel.base_config.num_dram_channels = 0;
    let crowded = spec
        .clone()
        .co_resident(vec![Workload::Mrq; 4], Partitioning::Shared);
    // Whole power-of-two set counts, but a 96 B line.
    let mut odd_line = spec.clone();
    odd_line.base_config.l1d.line_size = 96;
    odd_line.base_config.l2.line_size = 96;
    odd_line.base_config.l1d.size_bytes = 12 * 1024;
    odd_line.base_config.l2.size_bytes = 48 * 1024;
    // A power of two, but not the 128 B line every prefetcher assumes.
    let mut wide_line = spec.clone();
    wide_line.base_config.l1d.line_size = 256;
    wide_line.base_config.l2.line_size = 256;
    wide_line.base_config.l1d.size_bytes = 32 * 1024;
    wide_line.base_config.l2.size_bytes = 128 * 1024;
    // Three tenants split over two SMs: one would own none.
    let mut split = spec
        .clone()
        .co_resident(vec![Workload::Mrq, Workload::Scn], Partitioning::SmSplit);
    split.base_config.num_sms = 2;
    let mut narrow = spec;
    narrow.base_config.max_warps_per_sm = 2;
    narrow.base_config.max_ctas_per_sm = 2;
    let mut client = server.connect();
    for (spec, rule) in [
        (no_mshr, "MSHR entry"),
        (no_channel, "DRAM channel"),
        (odd_line, "line size must be 128 B"),
        (wide_line, "line size must be 128 B"),
        (crowded, "at most 3 partners"),
        (split, "an SM per tenant"),
        (narrow, "max_warps_per_sm"),
    ] {
        let err = client
            .submit_streaming(&[FarmJob::new(spec)], &mut |_, _| {})
            .expect_err("an impossible job is refused");
        assert!(err.to_string().contains(rule), "{rule}: {err}");
    }
    let (proto, ..) = client.status().expect("server alive after refusals");
    assert_eq!(proto, PROTOCOL_VERSION);
}

#[test]
fn concurrent_clients_get_bit_identical_records_and_cached_equals_fresh() {
    let (sock, cache_dir) = scratch("twoclient");
    let server = start_server(&sock, &cache_dir, 2);
    let jobs = tiny_jobs();

    // The ground truth: a purely local farm over its own cache.
    let local_dir = cache_dir.with_file_name("local-cache");
    let local_cache = ResultCache::new(CacheMode::ReadWrite, &local_dir);
    let (local_records, _) = Farm::new(&local_cache, 2).run_pruned(&jobs, &Default::default());
    let local_bytes = record_bytes(&local_records);

    // Two clients submit the same batch concurrently.
    let mut handles = Vec::new();
    for _ in 0..2 {
        let sock = sock.clone();
        let jobs = jobs.clone();
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect_retry(&sock, Duration::from_secs(10)).unwrap();
            let mut streamed = 0usize;
            let (records, stats) = client
                .submit_streaming(&jobs, &mut |_, _| streamed += 1)
                .expect("submit");
            assert_eq!(streamed, jobs.len(), "every record was streamed");
            (record_bytes(&records), stats)
        }));
    }
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Bit-identity: both clients, and the local ground truth, agree on
    // every serialized byte of every record.
    for (bytes, _) in &results {
        assert_eq!(bytes, &local_bytes, "socket transit must not perturb records");
    }

    // A second pass is served from the server's cache and is *still*
    // byte-identical: cached == fresh across the socket.
    let mut client = server.connect();
    let (records, stats) = client
        .submit_streaming(&jobs, &mut |_, _| {})
        .expect("second pass");
    assert_eq!(record_bytes(&records), local_bytes);
    assert_eq!(stats.sims, 0, "second pass simulates nothing");
    assert_eq!(stats.hits(), jobs.len() as u64);

    // The server's stats reply aggregates across all three batches.
    let (farm_total, counters) = client.server_stats().expect("stats");
    assert_eq!(farm_total.jobs, 3 * jobs.len() as u64);
    assert!(farm_total.sims >= jobs.len() as u64);
    assert!(counters.stores >= jobs.len() as u64);
}

#[test]
fn prune_request_carries_archive_keys_and_skips_covered_jobs() {
    let (sock, cache_dir) = scratch("prune");
    let server = start_server(&sock, &cache_dir, 2);
    let jobs = tiny_jobs();

    // Ship the first job's content key as an archive would.
    let mut client = server.connect();
    let total = client.push_prune([jobs[0].digest()]).expect("prune");
    assert_eq!(total, 1);

    let mut streamed = Vec::new();
    let (records, stats) = client
        .submit_streaming(&jobs, &mut |i, _| streamed.push(i))
        .expect("submit");
    assert!(records[0].is_none(), "covered job is skipped");
    assert!(records[1].is_some(), "uncovered job still runs");
    assert_eq!(stats.pruned, 1);
    assert_eq!(streamed, vec![1], "only the uncovered job streams");
}

/// Wait for `serve()` to return, failing if it takes longer than
/// `within` (`serve` blocks in `accept`, so a shutdown must wake it).
fn assert_serve_returns(server: &mut ServerHandle, within: Duration) {
    let thread = server.thread.take().expect("server running");
    let deadline = std::time::Instant::now() + within;
    while !thread.is_finished() {
        assert!(
            std::time::Instant::now() < deadline,
            "serve() did not return within {within:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    thread.join().expect("server thread");
}

#[test]
fn shutdown_request_and_request_shutdown_both_end_serve_promptly() {
    let bound = Duration::from_secs(5);

    // By request, over the socket.
    let (sock, cache_dir) = scratch("stopreq");
    let mut server = start_server(&sock, &cache_dir, 1);
    let mut client = server.connect();
    client.status().expect("serving");
    client.shutdown().expect("shutdown");
    assert_serve_returns(&mut server, bound);
    assert!(!sock.exists(), "socket file removed on shutdown");

    // By a bare call from another thread, with an idle client still
    // connected and no request in flight.
    let (sock, cache_dir) = scratch("stopcall");
    let mut server = start_server(&sock, &cache_dir, 1);
    let mut idle = server.connect();
    idle.status().expect("serving");
    server.server.request_shutdown();
    assert_serve_returns(&mut server, bound);
    assert!(!sock.exists(), "socket file removed on shutdown");
}
