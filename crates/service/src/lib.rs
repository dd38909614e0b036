//! # caps-service — simulation-as-a-service over the sweep farm
//!
//! A long-running simulation server on a Unix domain socket, speaking a
//! newline-delimited JSON protocol (one request or reply per line, in
//! [`caps_json::Value::compact`] form). Clients submit batches of
//! [`FarmJob`](caps_metrics::FarmJob)s; the server schedules them onto
//! the in-process work-stealing [`Farm`](caps_metrics::Farm), resolves
//! repeats through the persistent content-addressed
//! [`ResultCache`](caps_metrics::ResultCache), and streams each
//! [`RunRecord`](caps_metrics::RunRecord) back the moment it completes,
//! followed by the batch's [`FarmStats`](caps_metrics::FarmStats).
//!
//! Three layers:
//!
//! * [`proto`] — the wire vocabulary ([`Request`], [`Response`]), the
//!   partial-read-safe [`LineReader`], and the framing invariants
//!   (compact JSON is newline-free, so one line is always one message);
//! * [`server`] — [`Server`]: bind, accept, per-connection request
//!   loop, graceful shutdown on SIGINT/SIGTERM or a `shutdown` request.
//!   A malformed request earns an `error` reply on that connection and
//!   never affects the server or other clients;
//! * [`client`] — [`Client`]: a blocking connection wrapper. A caller
//!   that wants batches served remotely submits them through a
//!   `Client` explicitly (`simctl` does, falling back to a local farm
//!   when the server is down); nothing in a process is rerouted behind
//!   its back.
//!
//! Memoization semantics are exactly the farm's: results are keyed by
//! [`job_digest`](caps_metrics::job_digest) (build-fingerprint salted),
//! so a record streamed over the socket is bit-identical to the one an
//! in-process run would produce — `u64` counters round-trip exactly and
//! floats use shortest-roundtrip formatting on both sides of the wire.

#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod server;
mod signal;

pub use client::Client;
pub use proto::{LineReader, Request, Response, PROTOCOL_VERSION};
pub use server::{Server, ServerConfig};
