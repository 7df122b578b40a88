//! `deepgate-serve` — the concurrent inference server of the DeepGate
//! reproduction.
//!
//! [`deepgate::InferenceSession`] predicts one prepared circuit in a single
//! pass; this crate supplies the subsystem that serves a stream of
//! *independent concurrent requests* with it:
//!
//! - [`Scheduler`] — a bounded MPSC request queue drained by worker
//!   threads, one job per worker: each pops a request, predicts it through
//!   [`deepgate::InferenceSession::predict_into`] on the plan it was cached
//!   with, and routes the result back to its requester. A full queue
//!   rejects new work ([`ServeError::Overloaded`]) instead of building
//!   unbounded backlog.
//! - [`CircuitCache`] — a structural circuit cache: an LRU keyed by
//!   [`deepgate::gnn::CircuitGraph::fingerprint`] (plus a text-hash memo in
//!   front of the parser) holding prepared circuits with their inference
//!   plans, so repeated circuits skip BENCH parsing, AIG transformation,
//!   graph encoding and planning entirely.
//! - [`Server`] — an event-driven `std::net` TCP front end speaking
//!   newline-delimited JSON (see the [wire protocol](#wire-protocol)) with
//!   graceful drain on shutdown: in-flight requests complete, queued
//!   requests get a clean error, and every thread joins. See
//!   [Architecture](#architecture) for the thread model.
//!
//! # Architecture
//!
//! The front end is a single-threaded **event loop** (thread
//! `deepgate-serve-loop`) over nonblocking sockets: `poll(2)` — the one
//! readiness backend, portable to every platform the crate builds for —
//! reports which sockets have bytes to read or room to write, and a slab
//! connection table holds each connection's state. Both are indexed by the
//! same token, so an interest change is a write into the poller's `pollfd`
//! array, not a syscall; the price is that each wakeup scans every
//! registered socket (O(connections), measured in the `poll` module's
//! docs). The OS thread count is **flat** — one event loop plus
//! [`ServeConfig::workers`] workers — at any connection count,
//! where the previous blocking front end spawned one thread per
//! connection.
//!
//! Each connection is a small state machine:
//!
//! - **reading** — bytes accumulate in a zero-copy line framer; every
//!   complete line is dispatched (`&[u8]` sliced straight from the read
//!   buffer, no per-request allocation before parsing).
//! - **awaiting inference** — predict requests are submitted to the
//!   [`Scheduler`] *without blocking*; workers push results into a
//!   completion queue and wake the loop through a wakeup channel
//!   (`eventloop_completions_total` counts the round trips).
//! - **writing** — responses queue in a per-connection write buffer that
//!   drains through nonblocking partial writes. A buffer crossing the
//!   high watermark (256 KiB) pauses request reading on that connection
//!   (`write_backpressure_pauses_total`) until the client catches up.
//! - **closing** — on EOF, error, hygiene-deadline expiry, or drain.
//!
//! The hygiene deadlines (idle / line / write) are fields of the connection
//! (`last_activity`, `line_started`, `write_deadline`), not blocking
//! read/write timeouts: every loop iteration scans the connections once,
//! cuts those past a deadline and sleeps until the earliest one left —
//! the same O(connections) per wakeup that `poll(2)` already pays for its
//! `pollfd` array. Their semantics and telemetry
//! (`connections_reaped_total`, `write_timeouts_total`) are unchanged from
//! the blocking front end.
//!
//! # Wire protocol
//!
//! One JSON object per line, one response line per request, over a plain
//! TCP connection. `id` is echoed back verbatim and may be any JSON value.
//!
//! ```text
//! → {"id": 1, "bench": "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n"}
//! ← {"id": 1, "probs": [0.5, 0.5, 0.27]}
//! → {"id": 2, "op": "stats"}
//! ← {"id": 2, "stats": {"completed": 1, ...}}
//! → {"id": 3, "op": "shutdown"}
//! ← {"id": 3, "ok": true}
//! ```
//!
//! Two more verbs expose the telemetry subsystem (see [`ServeMetrics`] for
//! the full series list):
//!
//! - `{"op": "metrics"}` → `{"id": ..., "metrics": {"counters": {...},
//!   "gauges": {...}, "histograms": {...}}}` — every counter and gauge by
//!   name, and every latency/size histogram as `{count, sum, max, p50,
//!   p90, p99, buckets}` with `buckets` a list of `[upper_bound, count]`
//!   pairs. The whole object is rendered from ONE registry snapshot, so
//!   its series are mutually consistent.
//! - `{"op": "metrics_text"}` → `{"id": ..., "metrics_text": "..."}` — the
//!   same snapshot in Prometheus text exposition format, series prefixed
//!   `deepgate_`.
//!
//! With [`ServeConfig::slow_request_threshold`] set, any predict request at
//! or over the threshold logs one structured stderr line naming its
//! dominant stage:
//!
//! ```text
//! slow-request verb=predict name=c6288 total_ms=12.480 dominant=infer \
//!     parse_ms=0.031 infer_ms=11.975 respond_ms=0.102
//! ```
//!
//! # Deadlines
//!
//! A predict request may carry an optional `deadline_ms` field — the
//! client's latency budget in milliseconds, measured from the instant the
//! request line is read:
//!
//! ```text
//! → {"id": 5, "bench": "…", "deadline_ms": 50}
//! ← {"id": 5, "probs": [0.5, …]}                       (met the budget)
//! ← {"id": 5, "error": "deadline exceeded: …"}          (shed instead)
//! ```
//!
//! [`ServeConfig::default_deadline`] is the server-side cap: when both are
//! present the *tighter* budget wins, and with neither the request waits
//! indefinitely. Expiry is checked when a worker pops the job, **before**
//! inference
//! — an overloaded server sheds queued-but-expired requests cheaply
//! (counted in `scheduler_deadline_shed_total`) instead of computing
//! answers nobody is waiting for, and every shed request still receives its
//! one terminal `error` response.
//!
//! # Resilience
//!
//! The serving stack is built to keep answering under partial failure; see
//! the README's "Resilience" section for the full inventory. In brief:
//!
//! - **Worker-panic recovery** — a panic during inference is caught
//!   (`worker_panics_recovered_total`), the job's waiter gets an
//!   internal-error response, and the worker keeps draining; a worker
//!   thread that dies anyway is respawned (`worker_respawns_total`), so the
//!   scheduler never hangs a submitter or loses capacity.
//! - **Request-handler recovery** — a panic while handling a request line
//!   becomes an `error` response (`request_panics_recovered_total`) instead
//!   of a dropped connection.
//! - **Connection hygiene** — [`ServeConfig::idle_timeout`] reaps
//!   connections with no traffic, [`ServeConfig::line_timeout`] cuts
//!   clients that trickle a request line byte-by-byte (slow-loris),
//!   [`ServeConfig::write_timeout`] cuts clients that stop reading
//!   responses, [`ServeConfig::max_connections`] bounds the connection
//!   fleet, and [`ServeConfig::max_request_bytes`] bounds one request line.
//!   Pipelined requests on one connection are admitted up to the
//!   scheduler's bounded queue, and per-connection response buffering is
//!   bounded by the write-backpressure watermark — so total in-flight work
//!   stays bounded by `queue_depth` plus the buffered bytes the watermark
//!   allows.
//! - **Fault injection** — [`ServeConfig::faults`] accepts a seeded,
//!   stage-addressed [`fault::FaultPlan`] that injects panics, delays and
//!   I/O errors at runtime hooks on the parse/encode/plan/infer/respond
//!   path; the chaos integration test drives the server through all of
//!   them and asserts every request still gets exactly one terminal
//!   response.
//!
//! A predict request carries its circuit in exactly one of three fields:
//!
//! - `bench` — BENCH interchange text, inline.
//! - `aiger` — AIGER-ASCII (`.aag`) text, inline.
//! - `aiger_b64` — a base64-encoded AIGER file, ASCII or binary (`.aig`);
//!   the format is auto-detected from the magic. This is how binary AIGER —
//!   which cannot ride in a JSON string — crosses the wire (see [`b64`]).
//!
//! AIGER payloads may be sequential; the optional `latch` field selects the
//! ingestion policy: `"cut"` (default — latch boundaries become pseudo
//! inputs/outputs) or `"unroll:<frames>"` (time-frame expansion). The policy
//! is part of the cache key, so the same bytes under different policies are
//! correctly treated as different circuits.
//!
//! ```text
//! → {"id": 4, "aiger_b64": "YWlnIDU…", "latch": "unroll:3"}
//! ← {"id": 4, "probs": [0.5, …]}
//! ```
//!
//! Errors come back as `{"id": ..., "error": "..."}`; malformed lines get
//! an `id`-less error object. See `examples/serve_demo.rs` at the workspace
//! root for a complete client session.
// Unsafe is denied everywhere except the audited FFI shim in `poll::sys`
// (the one `poll(2)` call; std offers no readiness API), which opts back
// in with a scoped `#[allow]`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod b64;
mod cache;
mod conn;
pub mod fault;
mod metrics;
mod poll;
mod scheduler;
mod server;

pub use cache::{request_key, CacheStats, CircuitCache};
pub use conn::{Flush, LineFramer, LineOverflow, WriteBuf};
pub use fault::{FaultKind, FaultPlan};
pub use metrics::{snapshot_to_value, CacheMetrics, SchedulerMetrics, ServeMetrics};
pub use scheduler::{Scheduler, SchedulerStats};
pub use server::{Server, ServerStats};

use deepgate::DeepGateError;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Configuration of the serving subsystem: worker count, backpressure
/// limits, cache size and the listen address.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address; port 0 picks an ephemeral port (default
    /// `127.0.0.1:0`).
    pub addr: String,
    /// Bounded queue depth; submissions beyond it are rejected with
    /// [`ServeError::Overloaded`] (default 1024).
    pub queue_depth: usize,
    /// Number of worker threads, each predicting one request at a time
    /// (default: available parallelism).
    /// [`Scheduler::new`] accepts 0 — a drain-only scheduler that queues
    /// without serving, used to test backpressure and shutdown —
    /// [`Server::start`] requires at least 1.
    pub workers: usize,
    /// Structural-cache capacity in prepared circuits (default 256; 0
    /// disables caching).
    pub cache_capacity: usize,
    /// Slow-request log threshold: a predict request whose end-to-end
    /// latency reaches it gets one structured stderr line naming the
    /// dominant stage (default `None` — disabled). `Some(Duration::ZERO)`
    /// logs every predict request.
    pub slow_request_threshold: Option<Duration>,
    /// Server-side deadline cap for predict requests: the effective budget
    /// is the tighter of this and the request's `deadline_ms` field
    /// (default `None` — only client deadlines apply). Expired requests
    /// are shed when popped, before inference, with
    /// [`ServeError::DeadlineExceeded`].
    pub default_deadline: Option<Duration>,
    /// Reap a connection after this long with no completed request and no
    /// partial request line in flight (default 120 s; `None` disables).
    pub idle_timeout: Option<Duration>,
    /// Most time a request line may take from its first byte to its
    /// newline; a client trickling bytes slower (slow-loris) is cut off
    /// (default 30 s; `None` disables).
    pub line_timeout: Option<Duration>,
    /// Socket write timeout: a client that stops reading responses blocks
    /// the server's writes at most this long before the connection is
    /// dropped (default 30 s; `None` disables).
    pub write_timeout: Option<Duration>,
    /// Most connections served at once; further ones are refused with an
    /// error line (default 1024; 0 = unlimited). Bounds the event loop's
    /// connection table (and with it per-connection buffer memory) and the
    /// `pollfd` array every event-loop wakeup scans.
    pub max_connections: usize,
    /// Most bytes one request line may hold; a line growing past this cuts
    /// the connection instead of buffering unboundedly (default 8 MiB).
    pub max_request_bytes: u64,
    /// Deterministic fault-injection plan consulted at every stage hook
    /// (default `None` — no faults). See [`fault::FaultPlan`].
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            queue_depth: 1024,
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            cache_capacity: 256,
            slow_request_threshold: None,
            default_deadline: None,
            idle_timeout: Some(Duration::from_secs(120)),
            line_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            max_connections: 1024,
            max_request_bytes: 8 * 1024 * 1024,
            faults: None,
        }
    }
}

/// Any error the serving subsystem can produce.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// The request queue is full — backpressure, try again later.
    Overloaded {
        /// The configured queue depth that was exceeded.
        depth: usize,
    },
    /// The server is draining; the request was not (or no longer) queued.
    ShuttingDown,
    /// The request's latency budget (its `deadline_ms`, capped by
    /// [`ServeConfig::default_deadline`]) expired before inference started;
    /// the request was shed when popped, without running the model.
    DeadlineExceeded,
    /// The server hit an internal failure (e.g. a recovered worker panic)
    /// while processing the request. The request itself may be fine —
    /// retrying is reasonable.
    Internal(String),
    /// The request was malformed (bad JSON, missing fields, unparsable
    /// circuit).
    BadRequest(String),
    /// The engine failed while preparing or predicting the circuit.
    Engine(DeepGateError),
    /// A socket operation failed.
    Io(String),
    /// The configuration was inconsistent.
    Config(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded { depth } => {
                write!(f, "server overloaded: request queue is full ({depth})")
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::DeadlineExceeded => {
                write!(
                    f,
                    "deadline exceeded: request expired before inference and was shed"
                )
            }
            ServeError::Internal(msg) => write!(f, "internal error: {msg}"),
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::Engine(e) => write!(f, "engine error: {e}"),
            ServeError::Io(msg) => write!(f, "io error: {msg}"),
            ServeError::Config(msg) => write!(f, "invalid serve configuration: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DeepGateError> for ServeError {
    fn from(e: DeepGateError) -> Self {
        ServeError::Engine(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_consistent() {
        let config = ServeConfig::default();
        assert!(config.queue_depth >= 1);
        assert!(config.workers >= 1);
        assert!(config.addr.ends_with(":0"));
    }

    #[test]
    fn errors_display_and_convert() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ServeError>();
        let e: ServeError = DeepGateError::EmptyBatch.into();
        assert!(matches!(e, ServeError::Engine(_)));
        assert!(std::error::Error::source(&e).is_some());
        assert!(ServeError::Overloaded { depth: 4 }
            .to_string()
            .contains('4'));
        assert!(ServeError::ShuttingDown.to_string().contains("shutting"));
        assert!(ServeError::DeadlineExceeded
            .to_string()
            .contains("deadline exceeded"));
        assert!(ServeError::Internal("worker panicked".into())
            .to_string()
            .contains("worker panicked"));
    }

    #[test]
    fn default_resilience_limits_are_sane() {
        let config = ServeConfig::default();
        assert!(config.default_deadline.is_none(), "no cap unless asked");
        assert!(config.idle_timeout.is_some(), "idle reaping on");
        assert!(config.line_timeout.is_some() && config.write_timeout.is_some());
        assert!(config.max_connections >= 1);
        assert!(config.max_request_bytes >= 1024);
        assert!(config.faults.is_none(), "no faults unless injected");
    }
}
