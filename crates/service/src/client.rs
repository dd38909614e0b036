//! Client side: a blocking connection wrapper.

use std::io::{self, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

use caps_metrics::{CacheCounters, FarmJob, FarmStats, RunRecord};

use crate::proto::{LineReader, Request, Response};

/// A blocking client connection to a simulation server.
pub struct Client {
    reader: LineReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    /// Connect to a server socket.
    pub fn connect(path: &Path) -> io::Result<Client> {
        let stream = UnixStream::connect(path)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: LineReader::new(stream),
            writer,
        })
    }

    /// Connect, retrying for up to `wait` — covers the race between
    /// starting a server and its bind becoming visible.
    pub fn connect_retry(path: &Path, wait: Duration) -> io::Result<Client> {
        let deadline = Instant::now() + wait;
        loop {
            match Client::connect(path) {
                Ok(c) => return Ok(c),
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }

    fn send(&mut self, req: &Request) -> io::Result<()> {
        self.writer.write_all(req.to_line().as_bytes())
    }

    fn recv(&mut self) -> io::Result<Response> {
        match self.reader.read_line()? {
            Some(line) => Response::parse_line(&line)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e)),
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
        }
    }

    /// Expect a single specific reply; an `error` reply becomes an
    /// `io::Error`.
    fn expect<T>(
        &mut self,
        req: &Request,
        pick: impl FnOnce(Response) -> Result<T, Response>,
    ) -> io::Result<T> {
        self.send(req)?;
        match self.recv()? {
            Response::Error { message } => Err(io::Error::other(message)),
            resp => pick(resp).map_err(|other| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected reply: {other:?}"),
                )
            }),
        }
    }

    /// `status` probe: `(protocol, workers, connections, batches,
    /// jobs_done)`.
    pub fn status(&mut self) -> io::Result<(u64, u64, u64, u64, u64)> {
        self.expect(&Request::Status, |r| match r {
            Response::Status {
                proto,
                workers,
                connections,
                batches,
                jobs_done,
            } => Ok((proto, workers, connections, batches, jobs_done)),
            other => Err(other),
        })
    }

    /// `stats`: lifetime farm aggregate and cache counters.
    pub fn server_stats(&mut self) -> io::Result<(FarmStats, CacheCounters)> {
        self.expect(&Request::Stats, |r| match r {
            Response::Stats { farm, cache } => Ok((farm, cache)),
            other => Err(other),
        })
    }

    /// Merge content keys into the server-side prune set; returns its
    /// new total size. This is how a `farm --stats` archive (or a
    /// result-cache directory) is shipped to the server: load it with
    /// [`PruneSet::load`](caps_metrics::PruneSet::load), send the keys.
    pub fn push_prune(&mut self, keys: impl IntoIterator<Item = u128>) -> io::Result<u64> {
        let req = Request::Prune(keys.into_iter().collect());
        self.expect(&req, |r| match r {
            Response::PruneAck { total } => Ok(total),
            other => Err(other),
        })
    }

    /// Ask the server to exit once in-flight work drains.
    pub fn shutdown(&mut self) -> io::Result<()> {
        self.expect(&Request::Shutdown, |r| match r {
            Response::Bye => Ok(()),
            other => Err(other),
        })
    }

    /// Submit a batch and stream results: `on_record(index, record)`
    /// fires as each completion line arrives (completion order).
    /// Returns the index-aligned records — `None` marks a job the
    /// server's prune set skipped — and the batch statistics.
    pub fn submit_streaming(
        &mut self,
        jobs: &[FarmJob],
        on_record: &mut dyn FnMut(usize, &RunRecord),
    ) -> io::Result<(Vec<Option<RunRecord>>, FarmStats)> {
        self.send(&Request::Submit(jobs.to_vec()))?;
        let mut out: Vec<Option<RunRecord>> = vec![None; jobs.len()];
        loop {
            match self.recv()? {
                Response::Record { index, record } => {
                    if index >= out.len() {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("record index {index} out of range"),
                        ));
                    }
                    on_record(index, &record);
                    out[index] = Some(*record);
                }
                Response::Skipped { index } => {
                    if index >= out.len() {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("skipped index {index} out of range"),
                        ));
                    }
                }
                Response::Done { stats } => return Ok((out, stats)),
                Response::Error { message } => return Err(io::Error::other(message)),
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unexpected reply in submit stream: {other:?}"),
                    ));
                }
            }
        }
    }
}
