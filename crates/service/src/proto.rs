//! Wire protocol: newline-delimited JSON over a byte stream.
//!
//! Every message — request or reply — is one [`Value`] rendered by
//! [`Value::compact`] followed by a single `\n`. Compact form never
//! contains a raw newline (strings escape all control characters), so
//! framing is trivial and self-synchronizing: one line, one message.
//!
//! Requests are objects tagged by `"op"`:
//!
//! ```text
//! {"op":"submit","jobs":[{"spec":{...},"opts":{...}},...]}
//! {"op":"status"}
//! {"op":"stats"}
//! {"op":"prune","keys":["<32 hex>",...]}
//! {"op":"shutdown"}
//! ```
//!
//! Replies are objects tagged by `"ev"`. A `submit` earns a stream:
//! zero or more `record` / `skipped` lines (completion order), then one
//! terminal `done` carrying the batch [`FarmStats`]. Every other
//! request earns exactly one reply line. Any malformed request earns an
//! `error` reply on the same connection — the connection (and the
//! server) survive.
//!
//! [`LineReader`] is the read side: it accumulates bytes across
//! arbitrary read boundaries, including `WouldBlock`/`TimedOut` errors
//! from a socket with a read timeout, without ever losing a partial
//! line — the property the server's shutdown polling depends on.

use std::io::{self, Read};

use caps_json::{obj, Value};
use caps_metrics::{
    opts_from_value, opts_to_value, record_from_value, record_to_value, spec_from_value,
    spec_to_value, CacheCounters, FarmJob, FarmStats, RunRecord,
};

/// Protocol revision, reported in `status` replies. Bump on any change
/// to the message vocabulary.
pub const PROTOCOL_VERSION: u64 = 1;

/// Refuse lines beyond this size (a defensive cap; a full-matrix submit
/// is a few hundred KiB).
pub const MAX_LINE_BYTES: usize = 64 * 1024 * 1024;

/// One client request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Run a batch of jobs; stream records back as they complete.
    Submit(Vec<FarmJob>),
    /// One-line server liveness/occupancy probe.
    Status,
    /// Aggregate farm statistics and cache counters.
    Stats,
    /// Merge content keys into the server-side prune set: jobs whose
    /// key is covered are skipped (`skipped` reply) instead of run.
    Prune(Vec<u128>),
    /// Stop accepting connections and exit once in-flight work drains.
    Shutdown,
}

/// One server reply line.
#[derive(Debug, Clone)]
pub enum Response {
    /// A completed job from a `submit` batch (batch-relative index).
    Record {
        /// Position in the submitted batch.
        index: usize,
        /// The simulation result (bit-identical to a local run).
        /// Boxed: a record is by far the largest message payload and
        /// would otherwise dominate the size of every [`Response`].
        record: Box<RunRecord>,
    },
    /// A job skipped by the server-side prune set.
    Skipped {
        /// Position in the submitted batch.
        index: usize,
    },
    /// Terminal line of a `submit` stream.
    Done {
        /// What the batch did, job by job.
        stats: FarmStats,
    },
    /// Reply to `status`.
    Status {
        /// Protocol revision ([`PROTOCOL_VERSION`]).
        proto: u64,
        /// Farm worker threads serving each batch.
        workers: u64,
        /// Currently connected clients.
        connections: u64,
        /// Batches currently executing.
        batches: u64,
        /// Jobs completed over the server's lifetime.
        jobs_done: u64,
    },
    /// Reply to `stats`.
    Stats {
        /// Lifetime aggregate over every batch served.
        farm: FarmStats,
        /// The shared result cache's counters.
        cache: CacheCounters,
    },
    /// Reply to `prune`: the server-side set's new size.
    PruneAck {
        /// Total keys now covered.
        total: u64,
    },
    /// Reply to `shutdown`.
    Bye,
    /// The request on this line could not be served. The connection
    /// stays usable.
    Error {
        /// What was wrong with the request.
        message: String,
    },
}

fn hex_key(k: u128) -> Value {
    Value::Str(format!("{k:032x}"))
}

fn parse_hex_key(v: &Value) -> Result<u128, String> {
    let s = v.as_str().map_err(|e| e.to_string())?;
    if s.len() == 32 && s.bytes().all(|b| b.is_ascii_hexdigit()) {
        u128::from_str_radix(s, 16).map_err(|e| e.to_string())
    } else {
        Err(format!("bad content key {s:?} (want 32 hex digits)"))
    }
}

/// Serialize [`FarmStats`] for the wire.
pub fn farm_stats_to_value(s: &FarmStats) -> Value {
    obj(vec![
        ("jobs", Value::UInt(s.jobs)),
        ("sims", Value::UInt(s.sims)),
        ("mem_hits", Value::UInt(s.mem_hits)),
        ("disk_hits", Value::UInt(s.disk_hits)),
        ("dedup", Value::UInt(s.dedup)),
        ("pruned", Value::UInt(s.pruned)),
    ])
}

/// Parse [`FarmStats`] off the wire.
pub fn farm_stats_from_value(v: &Value) -> Result<FarmStats, String> {
    let u = |k: &str| -> Result<u64, String> {
        v.require(k)
            .and_then(|f| f.as_u64())
            .map_err(|e| e.to_string())
    };
    Ok(FarmStats {
        jobs: u("jobs")?,
        sims: u("sims")?,
        mem_hits: u("mem_hits")?,
        disk_hits: u("disk_hits")?,
        dedup: u("dedup")?,
        pruned: u("pruned")?,
    })
}

fn counters_to_value(c: &CacheCounters) -> Value {
    obj(vec![
        ("mem_hits", Value::UInt(c.mem_hits)),
        ("disk_hits", Value::UInt(c.disk_hits)),
        ("misses", Value::UInt(c.misses)),
        ("stores", Value::UInt(c.stores)),
        ("store_errors", Value::UInt(c.store_errors)),
    ])
}

fn counters_from_value(v: &Value) -> Result<CacheCounters, String> {
    let u = |k: &str| -> Result<u64, String> {
        v.require(k)
            .and_then(|f| f.as_u64())
            .map_err(|e| e.to_string())
    };
    Ok(CacheCounters {
        mem_hits: u("mem_hits")?,
        disk_hits: u("disk_hits")?,
        misses: u("misses")?,
        stores: u("stores")?,
        store_errors: u("store_errors")?,
    })
}

impl Request {
    /// Document form.
    pub fn to_value(&self) -> Value {
        match self {
            Request::Submit(jobs) => obj(vec![
                ("op", Value::Str("submit".into())),
                (
                    "jobs",
                    Value::Arr(
                        jobs.iter()
                            .map(|j| {
                                obj(vec![
                                    ("spec", spec_to_value(&j.spec)),
                                    ("opts", opts_to_value(&j.opts)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            Request::Status => obj(vec![("op", Value::Str("status".into()))]),
            Request::Stats => obj(vec![("op", Value::Str("stats".into()))]),
            Request::Prune(keys) => obj(vec![
                ("op", Value::Str("prune".into())),
                ("keys", Value::Arr(keys.iter().map(|&k| hex_key(k)).collect())),
            ]),
            Request::Shutdown => obj(vec![("op", Value::Str("shutdown".into()))]),
        }
    }

    /// Parse a request document. Every failure is a plain-language
    /// message suitable for an `error` reply.
    pub fn from_value(v: &Value) -> Result<Request, String> {
        let op = v
            .require("op")
            .and_then(|o| o.as_str())
            .map_err(|e| e.to_string())?;
        match op {
            "submit" => {
                let jobs = v
                    .require("jobs")
                    .and_then(|j| j.as_arr())
                    .map_err(|e| e.to_string())?;
                let jobs = jobs
                    .iter()
                    .map(|j| {
                        let spec =
                            spec_from_value(j.require("spec").map_err(|e| e.to_string())?)
                                .map_err(|e| e.to_string())?;
                        let opts = match j.get("opts") {
                            Some(o) => opts_from_value(o).map_err(|e| e.to_string())?,
                            None => Default::default(),
                        };
                        Ok(FarmJob::with_opts(spec, opts))
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(Request::Submit(jobs))
            }
            "status" => Ok(Request::Status),
            "stats" => Ok(Request::Stats),
            "prune" => {
                let keys = v
                    .require("keys")
                    .and_then(|k| k.as_arr())
                    .map_err(|e| e.to_string())?;
                Ok(Request::Prune(
                    keys.iter().map(parse_hex_key).collect::<Result<_, _>>()?,
                ))
            }
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!(
                "unknown op {other:?} (valid: submit status stats prune shutdown)"
            )),
        }
    }

    /// One wire line, newline included.
    pub fn to_line(&self) -> String {
        let mut s = self.to_value().compact();
        s.push('\n');
        s
    }

    /// Parse one wire line (newline optional).
    pub fn parse_line(line: &str) -> Result<Request, String> {
        let v = Value::parse(line.trim_end_matches(['\r', '\n'])).map_err(|e| e.to_string())?;
        Request::from_value(&v)
    }
}

impl Response {
    /// Document form.
    pub fn to_value(&self) -> Value {
        match self {
            Response::Record { index, record } => obj(vec![
                ("ev", Value::Str("record".into())),
                ("index", Value::UInt(*index as u64)),
                ("record", record_to_value(record)),
            ]),
            Response::Skipped { index } => obj(vec![
                ("ev", Value::Str("skipped".into())),
                ("index", Value::UInt(*index as u64)),
            ]),
            Response::Done { stats } => obj(vec![
                ("ev", Value::Str("done".into())),
                ("stats", farm_stats_to_value(stats)),
            ]),
            Response::Status {
                proto,
                workers,
                connections,
                batches,
                jobs_done,
            } => obj(vec![
                ("ev", Value::Str("status".into())),
                ("proto", Value::UInt(*proto)),
                ("workers", Value::UInt(*workers)),
                ("connections", Value::UInt(*connections)),
                ("batches", Value::UInt(*batches)),
                ("jobs_done", Value::UInt(*jobs_done)),
            ]),
            Response::Stats { farm, cache } => obj(vec![
                ("ev", Value::Str("stats".into())),
                ("farm", farm_stats_to_value(farm)),
                ("cache", counters_to_value(cache)),
            ]),
            Response::PruneAck { total } => obj(vec![
                ("ev", Value::Str("prune_ack".into())),
                ("total", Value::UInt(*total)),
            ]),
            Response::Bye => obj(vec![("ev", Value::Str("bye".into()))]),
            Response::Error { message } => obj(vec![
                ("ev", Value::Str("error".into())),
                ("message", Value::Str(message.clone())),
            ]),
        }
    }

    /// Parse a reply document.
    pub fn from_value(v: &Value) -> Result<Response, String> {
        let ev = v
            .require("ev")
            .and_then(|e| e.as_str())
            .map_err(|e| e.to_string())?;
        let index = |v: &Value| -> Result<usize, String> {
            v.require("index")
                .and_then(|i| i.as_u64())
                .map(|i| i as usize)
                .map_err(|e| e.to_string())
        };
        match ev {
            "record" => Ok(Response::Record {
                index: index(v)?,
                record: Box::new(
                    record_from_value(v.require("record").map_err(|e| e.to_string())?)
                        .map_err(|e| e.to_string())?,
                ),
            }),
            "skipped" => Ok(Response::Skipped { index: index(v)? }),
            "done" => Ok(Response::Done {
                stats: farm_stats_from_value(v.require("stats").map_err(|e| e.to_string())?)?,
            }),
            "status" => {
                let u = |k: &str| -> Result<u64, String> {
                    v.require(k)
                        .and_then(|f| f.as_u64())
                        .map_err(|e| e.to_string())
                };
                Ok(Response::Status {
                    proto: u("proto")?,
                    workers: u("workers")?,
                    connections: u("connections")?,
                    batches: u("batches")?,
                    jobs_done: u("jobs_done")?,
                })
            }
            "stats" => Ok(Response::Stats {
                farm: farm_stats_from_value(v.require("farm").map_err(|e| e.to_string())?)?,
                cache: counters_from_value(v.require("cache").map_err(|e| e.to_string())?)?,
            }),
            "prune_ack" => Ok(Response::PruneAck {
                total: v
                    .require("total")
                    .and_then(|t| t.as_u64())
                    .map_err(|e| e.to_string())?,
            }),
            "bye" => Ok(Response::Bye),
            "error" => Ok(Response::Error {
                message: v
                    .require("message")
                    .and_then(|m| m.as_str())
                    .map(str::to_string)
                    .map_err(|e| e.to_string())?,
            }),
            other => Err(format!("unknown ev {other:?}")),
        }
    }

    /// One wire line, newline included.
    pub fn to_line(&self) -> String {
        let mut s = self.to_value().compact();
        s.push('\n');
        s
    }

    /// Parse one wire line (newline optional).
    pub fn parse_line(line: &str) -> Result<Response, String> {
        let v = Value::parse(line.trim_end_matches(['\r', '\n'])).map_err(|e| e.to_string())?;
        Response::from_value(&v)
    }
}

/// A line framer that survives arbitrary read fragmentation.
///
/// Unlike `BufRead::read_line`, a read error (`WouldBlock`, `TimedOut`,
/// anything a socket read timeout produces) does **not** discard bytes
/// already consumed: the partial line stays buffered and the next call
/// resumes where the stream left off. `Interrupted` reads are retried
/// internally.
pub struct LineReader<R> {
    inner: R,
    pending: Vec<u8>,
}

impl<R: Read> LineReader<R> {
    /// Wrap a byte stream.
    pub fn new(inner: R) -> Self {
        LineReader {
            inner,
            pending: Vec::new(),
        }
    }

    /// The wrapped stream (for e.g. adjusting socket timeouts).
    pub fn get_ref(&self) -> &R {
        &self.inner
    }

    /// Next complete line, without its terminator (`\n` or `\r\n`).
    ///
    /// * `Ok(Some(line))` — a full line arrived;
    /// * `Ok(None)` — clean end of stream on a line boundary;
    /// * `Err(UnexpectedEof)` — the stream ended mid-line;
    /// * `Err(InvalidData)` — non-UTF-8 line, or a line beyond
    ///   [`MAX_LINE_BYTES`];
    /// * any other `Err` — propagated from the stream with the partial
    ///   line retained for the next call.
    pub fn read_line(&mut self) -> io::Result<Option<String>> {
        loop {
            if let Some(pos) = self.pending.iter().position(|&b| b == b'\n') {
                let mut line: Vec<u8> = self.pending.drain(..=pos).collect();
                line.pop();
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return match String::from_utf8(line) {
                    Ok(s) => Ok(Some(s)),
                    Err(_) => Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "non-UTF-8 line",
                    )),
                };
            }
            if self.pending.len() > MAX_LINE_BYTES {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "line exceeds MAX_LINE_BYTES",
                ));
            }
            let mut chunk = [0u8; 4096];
            match self.inner.read(&mut chunk) {
                Ok(0) => {
                    return if self.pending.is_empty() {
                        Ok(None)
                    } else {
                        Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "stream closed mid-line",
                        ))
                    };
                }
                Ok(n) => self.pending.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        use caps_metrics::{RunOpts, RunSpec};
        use caps_workloads::Workload;
        let reqs = vec![
            Request::Submit(vec![
                FarmJob::new(RunSpec::small(Workload::Jc1, caps_metrics::Engine::Caps)),
                FarmJob::with_opts(
                    RunSpec::small(Workload::Mm, caps_metrics::Engine::Baseline),
                    RunOpts {
                        max_cycles: Some(1234),
                        ..RunOpts::default()
                    },
                ),
            ]),
            Request::Status,
            Request::Stats,
            Request::Prune(vec![0, 7, u128::MAX]),
            Request::Shutdown,
        ];
        for req in reqs {
            let line = req.to_line();
            assert!(line.ends_with('\n') && !line[..line.len() - 1].contains('\n'));
            let back = Request::parse_line(&line).unwrap();
            assert_eq!(back.to_line(), line, "{line}");
        }
    }

    #[test]
    fn submit_round_trip_preserves_job_digests() {
        use caps_metrics::{RunOpts, RunSpec};
        use caps_workloads::Workload;
        let jobs = vec![
            FarmJob::new(RunSpec::small(Workload::Scn, caps_metrics::Engine::Caps)),
            FarmJob::with_opts(
                RunSpec::small(Workload::Jc1, caps_metrics::Engine::InterAtDistance(3)),
                RunOpts {
                    max_cycles: Some(5000),
                    ..RunOpts::default()
                },
            ),
        ];
        let line = Request::Submit(jobs.clone()).to_line();
        match Request::parse_line(&line).unwrap() {
            Request::Submit(back) => {
                assert_eq!(back.len(), jobs.len());
                for (a, b) in jobs.iter().zip(&back) {
                    assert_eq!(a.digest(), b.digest(), "wire transit changed a content key");
                }
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn simple_responses_round_trip() {
        let resps = vec![
            Response::Skipped { index: 3 },
            Response::Done {
                stats: FarmStats {
                    jobs: 10,
                    sims: 4,
                    mem_hits: 3,
                    disk_hits: 1,
                    dedup: 1,
                    pruned: 1,
                },
            },
            Response::Status {
                proto: PROTOCOL_VERSION,
                workers: 8,
                connections: 2,
                batches: 1,
                jobs_done: 99,
            },
            Response::Stats {
                farm: FarmStats::default(),
                cache: CacheCounters::default(),
            },
            Response::PruneAck { total: 56 },
            Response::Bye,
            Response::Error {
                message: "nope\nwith a newline".into(),
            },
        ];
        for r in resps {
            let line = r.to_line();
            assert!(
                line.ends_with('\n') && !line[..line.len() - 1].contains('\n'),
                "framing broken: {line:?}"
            );
            let back = Response::parse_line(&line).unwrap();
            assert_eq!(back.to_line(), line);
        }
    }

    #[test]
    fn bad_requests_are_errors_not_panics() {
        for bad in [
            "",
            "{",
            "[1,2,3]",
            r#"{"op":"fly"}"#,
            r#"{"op":"submit"}"#,
            r#"{"op":"submit","jobs":[{}]}"#,
            r#"{"op":"prune","keys":["zz"]}"#,
            r#"{"op":"prune","keys":[12]}"#,
            r#"{"op":"submit","jobs":[{"spec":{"workload":"NOPE"}}]}"#,
        ] {
            assert!(Request::parse_line(bad).is_err(), "{bad:?}");
        }
    }

    /// A reader that returns one byte at a time, interleaving
    /// `WouldBlock` errors between every delivered byte — the worst
    /// case a read-timeout socket can produce.
    struct Trickle {
        data: Vec<u8>,
        pos: usize,
        blocked: bool,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos >= self.data.len() {
                return Ok(0);
            }
            if !self.blocked {
                self.blocked = true;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "trickle"));
            }
            self.blocked = false;
            buf[0] = self.data[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn line_reader_survives_would_block_mid_line() {
        let wire = "{\"op\":\"status\"}\n{\"op\":\"stats\"}\r\npartial";
        let mut r = LineReader::new(Trickle {
            data: wire.as_bytes().to_vec(),
            pos: 0,
            blocked: false,
        });
        let mut lines = Vec::new();
        loop {
            match r.read_line() {
                Ok(Some(l)) => lines.push(l),
                Ok(None) => break,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                    // The trailing "partial" has no newline.
                    lines.push("<eof-mid-line>".into());
                    break;
                }
                Err(e) => panic!("{e}"),
            }
        }
        assert_eq!(
            lines,
            vec![
                "{\"op\":\"status\"}".to_string(),
                "{\"op\":\"stats\"}".to_string(),
                "<eof-mid-line>".to_string(),
            ]
        );
    }
}
