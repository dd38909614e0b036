//! The simulation server: accept loop, per-connection request handling,
//! shared scheduling state, graceful shutdown.
//!
//! One process-wide [`ResultCache`] backs every connection; each
//! `submit` batch runs on its own [`Farm`] (farm worker threads
//! are cheap — simulation time dominates), so concurrent clients
//! multiplex onto one machine and one memoization store. Identical jobs
//! *within* a batch dedup; identical jobs racing across *concurrent*
//! batches may both simulate — they produce bit-identical records and
//! the cache insert is idempotent, so the only cost is duplicated work
//! in a rare race.
//!
//! Lifecycle: [`Server::serve`] binds the socket (replacing a stale
//! file), blocks SIGINT/SIGTERM, and blocks in `accept`, so a new
//! connection is served at once; a watcher thread turns a delivered
//! signal into a shutdown request. Shutdown — by signal, by a `shutdown`
//! request, or by [`Server::request_shutdown`] — wakes the accept with a
//! connection of its own, stops accepting, lets in-flight connections
//! finish their current batch, unlinks the socket file, and returns.
//!
//! Error containment: a malformed line earns an `error` reply and the
//! connection lives on; a request that fails *validation* (a
//! [`GpuConfig`](caps_gpu_sim::config::GpuConfig) the simulator would
//! reject) earns an `error` reply before any job runs; an unexpected
//! panic in a connection thread is caught and drops only that
//! connection. The accept loop can not be killed by anything a client
//! sends.

use std::io::{self, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use caps_metrics::{Farm, FarmJob, FarmStats, PruneSet, ResultCache};

use crate::proto::{LineReader, Request, Response, PROTOCOL_VERSION};
use crate::signal;

/// How long the signal watcher waits per round: a delivered signal
/// ends the wait at once; the bound is how late the watcher notices a
/// shutdown requested otherwise, and so how long `serve` may take to
/// return after it.
const SIGNAL_WAIT: Duration = Duration::from_millis(20);

/// Pause after an `accept` error other than an interrupt, so a
/// persistent failure (such as running out of descriptors) does not
/// spin.
const ACCEPT_RETRY: Duration = Duration::from_millis(25);

/// Per-connection read timeout: how often an idle connection thread
/// re-checks the shutdown flag. [`LineReader`] keeps partial lines
/// across these timeouts.
const READ_POLL: Duration = Duration::from_millis(200);

/// Lock that shrugs off poisoning: connection threads are
/// panic-isolated, and every critical section here leaves the data
/// consistent at all times.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Server parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Unix-domain socket path to bind.
    pub socket: PathBuf,
    /// Farm worker threads per batch.
    pub workers: usize,
}

/// A simulation server over one result cache. See the module docs.
pub struct Server {
    cfg: ServerConfig,
    cache: ResultCache,
    prune: Mutex<PruneSet>,
    total: Mutex<FarmStats>,
    connections: AtomicU64,
    batches: AtomicU64,
    jobs_done: AtomicU64,
    shutdown: AtomicBool,
}

impl Server {
    /// A server that will schedule onto `cache` when served.
    pub fn new(cfg: ServerConfig, cache: ResultCache) -> Self {
        Server {
            cfg,
            cache,
            prune: Mutex::new(PruneSet::new()),
            total: Mutex::new(FarmStats::default()),
            connections: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            jobs_done: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        }
    }

    /// The server's configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// The result cache every batch resolves through.
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// Ask the accept loop to exit after in-flight work drains. Safe
    /// to call from any thread, before or during [`Self::serve`].
    pub fn request_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            // Wake an accept blocked in `serve`. Fails harmlessly when
            // nothing listens on the socket.
            let _ = UnixStream::connect(&self.cfg.socket);
        }
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Bind the socket and serve until shutdown. Blocks the calling
    /// thread; connection handlers run on scoped threads. Returns once
    /// every connection has drained and the socket file is unlinked.
    pub fn serve(&self) -> io::Result<()> {
        // A previous server that died uncleanly leaves its socket file
        // behind; bind() would fail with AddrInUse. Replace it — a
        // *live* server would still win the race only by luck, but two
        // servers on one path is an operator error either way.
        let _ = std::fs::remove_file(&self.cfg.socket);
        let listener = UnixListener::bind(&self.cfg.socket)?;
        signal::block_shutdown_signals();

        std::thread::scope(|scope| {
            scope.spawn(|| {
                while !self.is_shutting_down() {
                    if signal::wait_shutdown_signal(SIGNAL_WAIT) {
                        self.request_shutdown();
                    }
                }
            });
            while !self.is_shutting_down() {
                match listener.accept() {
                    // The connection that woke a shutdown is dropped.
                    Ok(_) if self.is_shutting_down() => break,
                    Ok((stream, _)) => {
                        scope.spawn(move || self.handle_connection(stream));
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => std::thread::sleep(ACCEPT_RETRY),
                }
            }
        });
        let _ = std::fs::remove_file(&self.cfg.socket);
        Ok(())
    }

    /// One connection: a request loop until EOF, error, or shutdown.
    fn handle_connection(&self, stream: UnixStream) {
        self.connections.fetch_add(1, Ordering::SeqCst);
        // Client-side disconnects are routine, not server errors. A
        // panic is caught so that the accept loop (and the scope join)
        // survive it and the connection still leaves the count.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.connection_loop(stream)
        }));
        self.connections.fetch_sub(1, Ordering::SeqCst);
    }

    fn connection_loop(&self, stream: UnixStream) -> io::Result<()> {
        stream.set_read_timeout(Some(READ_POLL))?;
        let mut writer = stream.try_clone()?;
        let mut reader = LineReader::new(stream);
        loop {
            if self.is_shutting_down() {
                return Ok(());
            }
            match reader.read_line() {
                Ok(None) => return Ok(()),
                Ok(Some(line)) => {
                    if !self.serve_line(&line, &mut writer)? {
                        return Ok(());
                    }
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    continue;
                }
                Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                    // Non-UTF-8 or oversized line: report and drop the
                    // connection (framing can no longer be trusted),
                    // but never the server.
                    let _ = write_response(
                        &mut writer,
                        &Response::Error {
                            message: e.to_string(),
                        },
                    );
                    return Ok(());
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Serve one request line. `Ok(false)` closes the connection.
    fn serve_line(&self, line: &str, writer: &mut UnixStream) -> io::Result<bool> {
        let req = match Request::parse_line(line) {
            Ok(req) => req,
            Err(message) => {
                // A malformed request is the *client's* problem: reply
                // and keep serving this connection.
                write_response(writer, &Response::Error { message })?;
                return Ok(true);
            }
        };
        match req {
            Request::Submit(jobs) => {
                self.batches.fetch_add(1, Ordering::SeqCst);
                let r = self.serve_submit(&jobs, writer);
                self.batches.fetch_sub(1, Ordering::SeqCst);
                r?;
                Ok(true)
            }
            Request::Status => {
                write_response(
                    writer,
                    &Response::Status {
                        proto: PROTOCOL_VERSION,
                        workers: self.cfg.workers as u64,
                        connections: self.connections.load(Ordering::SeqCst),
                        batches: self.batches.load(Ordering::SeqCst),
                        jobs_done: self.jobs_done.load(Ordering::SeqCst),
                    },
                )?;
                Ok(true)
            }
            Request::Stats => {
                let farm = *lock(&self.total);
                write_response(
                    writer,
                    &Response::Stats {
                        farm,
                        cache: self.cache.counters(),
                    },
                )?;
                Ok(true)
            }
            Request::Prune(keys) => {
                let total = {
                    let mut prune = lock(&self.prune);
                    for k in keys {
                        prune.insert(k);
                    }
                    prune.len() as u64
                };
                write_response(writer, &Response::PruneAck { total })?;
                Ok(true)
            }
            Request::Shutdown => {
                write_response(writer, &Response::Bye)?;
                self.request_shutdown();
                Ok(false)
            }
        }
    }

    /// Run one batch, streaming records as they complete.
    fn serve_submit(&self, jobs: &[FarmJob], writer: &mut UnixStream) -> io::Result<()> {
        // Check up front: the simulator panics on a job it cannot run,
        // and a panic inside the farm would cost the whole connection.
        // Checked here, it is just a reply.
        for (i, job) in jobs.iter().enumerate() {
            if let Err(why) = job.spec.check() {
                let message = format!("job {i}: {why}");
                write_response(writer, &Response::Error { message })?;
                return Ok(());
            }
        }
        let prune = lock(&self.prune).clone();
        let farm = Farm::new(&self.cache, self.cfg.workers);
        // A client that hangs up mid-stream must not abort the batch:
        // the remaining results still land in the cache. Remember the
        // first write error, stop writing, finish simulating.
        let mut write_err: Option<io::Error> = None;
        let (results, stats) = farm.run_pruned_streaming(jobs, &prune, |index, record| {
            if write_err.is_none() {
                if let Err(e) = write_response(
                    writer,
                    &Response::Record {
                        index,
                        record: Box::new(record.clone()),
                    },
                ) {
                    write_err = Some(e);
                }
            }
        });
        self.jobs_done
            .fetch_add(results.iter().flatten().count() as u64, Ordering::SeqCst);
        *lock(&self.total) += stats;
        if let Some(e) = write_err {
            return Err(e);
        }
        for (index, slot) in results.iter().enumerate() {
            if slot.is_none() {
                write_response(writer, &Response::Skipped { index })?;
            }
        }
        write_response(writer, &Response::Done { stats })
    }
}

fn write_response(writer: &mut UnixStream, resp: &Response) -> io::Result<()> {
    writer.write_all(resp.to_line().as_bytes())
}
