//! The TCP front end: an event-driven, nonblocking serving core speaking
//! newline-delimited JSON over persistent connections.
//!
//! One event-loop thread owns every connection: a `poll(2)` [`Poller`]
//! indexed by token reports socket readiness, and a slab [`ConnTable`]
//! holds per-connection read/write buffers and hygiene deadlines (idle /
//! line / write) under those same tokens. Each loop iteration cuts the
//! connections past a deadline and sleeps until the earliest one left —
//! state-machine transitions instead of per-thread blocking reads. Predict
//! requests are submitted to the scheduler without blocking, each carrying
//! its [`PendingPredict`] in its reply: whoever settles the job — a worker,
//! a rejection, the shutdown flush — pushes it with the outcome into a
//! [`CompletionQueue`] and wakes the loop through a [`Waker`], so the OS
//! thread count stays flat — one loop plus the configured workers — at any
//! connection fleet size.

use crate::cache::{request_key, CircuitCache};
use crate::conn::{Conn, ConnTable, Flush, LineOverflow};
use crate::fault::panic_message;
use crate::metrics::{snapshot_to_value, stats_to_value};
use crate::poll::{waker, Event, Interest, Poller, WakeReceiver, Waker};
use crate::scheduler::Outcome;
use crate::{b64, Scheduler, ServeConfig, ServeError, ServeMetrics};
use deepgate::telemetry::{RequestTrace, SlowLog, Stage};
use deepgate::{AigerBytes, BenchText, Engine, LatchPolicy, PreparedCircuit};
use serde::{Serialize, Value};
use std::io::{ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poller token of the listening socket.
const LISTENER: usize = 0;
/// Poller token of the wakeup channel's read half.
const WAKER_TOKEN: usize = 1;
/// Connection slots map to poller tokens at this offset.
const CONN_BASE: usize = 2;
/// A connection whose write buffer crosses this stops having its requests
/// read (backpressure) until the client drains responses below half of it.
const WRITE_HIGH_WATERMARK: usize = 256 * 1024;
const WRITE_LOW_WATERMARK: usize = WRITE_HIGH_WATERMARK / 2;
/// The longest the loop sleeps with no deadline pending.
const IDLE_POLL_CAP: Duration = Duration::from_millis(500);
/// Poll cadence while draining, so shutdown completes promptly.
const DRAIN_POLL: Duration = Duration::from_millis(20);
/// How long the drain waits for clients to accept already-buffered
/// responses before cutting the remaining connections.
const DRAIN_GRACE: Duration = Duration::from_secs(3);

struct Inner {
    engine: Engine,
    scheduler: Scheduler,
    cache: CircuitCache,
    metrics: ServeMetrics,
    slow_log: Option<SlowLog>,
    /// The resilience knobs the connection path consults per request:
    /// deadlines, hygiene timeouts, size/fleet bounds and the fault plan.
    config: ServeConfig,
    addr: SocketAddr,
    /// Set once shutdown is requested; new predict requests are refused.
    draining: AtomicBool,
    /// Signalled when a shutdown request arrives (wire verb or API call).
    shutdown_requested: (Mutex<bool>, Condvar),
    /// Wakes the event loop out of its poller wait from any thread.
    waker: Waker,
    /// Set by [`Server::drain`] once the scheduler has flushed: from then
    /// on no new completions can appear and the loop may finish draining.
    scheduler_drained: AtomicBool,
}

/// The serving front end: owns the engine, the scheduler, the cache and the
/// event-loop thread.
///
/// ```no_run
/// use deepgate::Engine;
/// use deepgate_serve::{ServeConfig, Server};
///
/// let engine = Engine::builder().build().expect("valid configuration");
/// let server = Server::start(engine, ServeConfig::default()).expect("binds");
/// println!("serving on {}", server.local_addr());
/// server.wait(); // blocks until a shutdown verb arrives, then drains
/// ```
pub struct Server {
    inner: Arc<Inner>,
    event_loop: Mutex<Option<JoinHandle<()>>>,
    drained: AtomicBool,
}

impl Server {
    /// Binds `config.addr` and starts the event loop, workers and cache.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] for inconsistent settings (including
    /// `workers == 0`, which only [`Scheduler::new`] accepts) and
    /// [`ServeError::Io`] if the address cannot be bound.
    pub fn start(mut engine: Engine, config: ServeConfig) -> Result<Server, ServeError> {
        if config.workers == 0 {
            return Err(ServeError::Config(
                "a server needs at least one worker".into(),
            ));
        }
        // One registry for the whole serving stack: the engine, the GNN
        // kernel, the scheduler's workers, the cache and the request path
        // all record into `metrics`, so one snapshot reads them all.
        let metrics = ServeMetrics::new();
        engine.set_metrics(Arc::clone(&metrics.engine));
        let (wake_tx, wake_rx) =
            waker().map_err(|e| ServeError::Io(format!("wakeup channel: {e}")))?;
        let completions = Arc::new(CompletionQueue {
            queue: Mutex::new(Vec::new()),
            waker: wake_tx.clone(),
        });
        let scheduler =
            Scheduler::with_metrics(engine.session(), &config, metrics.scheduler.clone())?;
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| ServeError::Io(format!("binding {}: {e}", config.addr)))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| ServeError::Io(format!("nonblocking listener: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| ServeError::Io(format!("local_addr: {e}")))?;
        let inner = Arc::new(Inner {
            engine,
            scheduler,
            cache: CircuitCache::with_metrics(config.cache_capacity, metrics.cache.clone()),
            slow_log: config.slow_request_threshold.map(SlowLog::new),
            metrics,
            config,
            addr,
            draining: AtomicBool::new(false),
            shutdown_requested: (Mutex::new(false), Condvar::new()),
            waker: wake_tx,
            scheduler_drained: AtomicBool::new(false),
        });
        let event_loop = EventLoop::new(Arc::clone(&inner), listener, wake_rx, completions)
            .map_err(|e| ServeError::Io(format!("registering event loop fds: {e}")))?;
        let handle = std::thread::Builder::new()
            .name("deepgate-serve-loop".into())
            .spawn(move || event_loop.run())
            .map_err(|e| ServeError::Io(format!("spawning event loop: {e}")))?;
        Ok(Server {
            inner,
            event_loop: Mutex::new(Some(handle)),
            drained: AtomicBool::new(false),
        })
    }

    /// The bound address (resolves the ephemeral port of `addr: …:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// The server's telemetry: every series of the serving stack, readable
    /// through one consistent [`ServeMetrics::snapshot`].
    pub fn metrics(&self) -> &ServeMetrics {
        &self.inner.metrics
    }

    /// Marks the server as draining without blocking: the wire `shutdown`
    /// verb calls this, and [`Server::wait`] picks it up.
    pub fn request_shutdown(&self) {
        self.inner.request_shutdown();
    }

    /// Blocks until shutdown is requested (by [`Server::request_shutdown`]
    /// or the wire verb), then drains and joins every thread.
    pub fn wait(&self) {
        let (flag, signal) = &self.inner.shutdown_requested;
        let mut requested = flag.lock().expect("shutdown flag lock");
        while !*requested {
            requested = signal.wait(requested).expect("shutdown flag lock");
        }
        drop(requested);
        self.drain();
    }

    /// Graceful shutdown: requests the drain and performs it. In-flight
    /// requests complete, queued requests get [`ServeError::ShuttingDown`],
    /// and the event loop and every worker join. Idempotent.
    pub fn shutdown(&self) {
        self.inner.request_shutdown();
        self.drain();
    }

    fn drain(&self) {
        if self.drained.swap(true, Ordering::SeqCst) {
            return;
        }
        // 1. Stop accepting: the flag is already set (request_shutdown) and
        //    the waker pulls the loop out of its wait; its drain step drops
        //    the listener on the next iteration.
        self.inner.waker.wake();
        // 2. Drain the scheduler: executing jobs complete and push their
        //    completions, queued requests get a clean ShuttingDown error on
        //    the same path. After this returns no new completion can appear.
        self.inner.scheduler.shutdown();
        self.inner.scheduler_drained.store(true, Ordering::SeqCst);
        self.inner.waker.wake();
        // 3. The loop flushes buffered responses (bounded by DRAIN_GRACE),
        //    retires every connection and exits; join it.
        if let Some(handle) = self.event_loop.lock().expect("event loop lock").take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Inner {
    /// Consults the fault plan at a stage hook: panic and delay faults
    /// apply in place (the panic unwinds into the caller's recovery layer),
    /// I/O faults surface as [`ServeError::Internal`].
    fn fault(&self, stage: Stage) -> Result<(), ServeError> {
        if let Some(faults) = &self.config.faults {
            faults
                .fire(stage)
                .map_err(|e| ServeError::Internal(e.to_string()))?;
        }
        Ok(())
    }

    fn request_shutdown(&self) {
        self.draining.store(true, Ordering::SeqCst);
        let (flag, signal) = &self.shutdown_requested;
        *flag.lock().expect("shutdown flag lock") = true;
        signal.notify_all();
        // Pull the event loop out of its wait so it stops accepting now.
        self.waker.wake();
    }

    /// Resolves a request payload to a prepared circuit through the
    /// two-level structural cache; misses run the full parse → transform →
    /// encode → plan pipeline, attributed to the trace's `Encode` and
    /// `Plan` stages (cache hits skip both, so those stages stay untouched).
    fn resolve(
        &self,
        payload: &RequestPayload,
        trace: &mut RequestTrace,
    ) -> Result<Arc<PreparedCircuit>, ServeError> {
        let key = payload.cache_key();
        if let Some(prepared) = self.cache.lookup_text(key) {
            return Ok(prepared);
        }
        self.fault(Stage::Encode)?;
        let circuits = trace.time(Stage::Encode, || match payload {
            RequestPayload::Bench { name, text } => self
                .engine
                .prepare_unlabelled(&BenchText::new(name.as_str(), text.as_str())),
            RequestPayload::Aiger {
                name,
                bytes,
                policy,
            } => self.engine.prepare_unlabelled(
                &AigerBytes::new(name.as_str(), bytes.clone()).latch_policy(*policy),
            ),
        });
        let circuit = circuits
            .map_err(|e| ServeError::BadRequest(e.to_string()))?
            .pop()
            .ok_or_else(|| ServeError::BadRequest("request contained no circuit".into()))?;
        let fingerprint = circuit.fingerprint();
        if let Some(prepared) = self.cache.lookup_fingerprint(key, fingerprint) {
            return Ok(prepared);
        }
        self.fault(Stage::Plan)?;
        let prepared = trace.time(Stage::Plan, || {
            Arc::new(self.scheduler.session().prepare(circuit))
        });
        self.cache.insert(key, fingerprint, Arc::clone(&prepared));
        Ok(prepared)
    }
}

/// One circuit payload extracted from a predict request: BENCH text, or
/// AIGER bytes (ASCII or binary, possibly base64-transported) plus the
/// latch ingestion policy the client asked for.
enum RequestPayload {
    Bench {
        name: String,
        text: String,
    },
    Aiger {
        name: String,
        bytes: Vec<u8>,
        policy: LatchPolicy,
    },
}

impl RequestPayload {
    /// First-level cache key: the payload kind, its ingestion variant and
    /// its bytes. AIGER keys fold in the latch policy — the same bytes
    /// under `cut` and `unroll:k` are different circuits.
    fn cache_key(&self) -> u128 {
        match self {
            RequestPayload::Bench { text, .. } => request_key("bench", "", text.as_bytes()),
            RequestPayload::Aiger { bytes, policy, .. } => {
                request_key("aiger", &policy.to_string(), bytes)
            }
        }
    }
}

/// Parses the `deadline_ms` field of a predict request and folds in the
/// server-side cap: the *tighter* of the two budgets wins, and with neither
/// present the request has no deadline. `deadline_ms: 0` is legal and
/// deterministically sheds (the budget is already spent on arrival).
fn parse_deadline(
    value: Option<&Value>,
    cap: Option<Duration>,
) -> Result<Option<Duration>, String> {
    let requested = match value {
        None => None,
        Some(Value::UInt(ms)) => Some(Duration::from_millis(*ms)),
        Some(Value::Int(ms)) if *ms >= 0 => Some(Duration::from_millis(*ms as u64)),
        Some(_) => {
            return Err("`deadline_ms` must be a non-negative integer of milliseconds".into())
        }
    };
    Ok(match (requested, cap) {
        (Some(requested), Some(cap)) => Some(requested.min(cap)),
        (requested, cap) => requested.or(cap),
    })
}

/// Parses the `latch` field of a predict request: absent → `cut`, otherwise
/// the string forms `"cut"` and `"unroll:<frames>"`.
fn parse_latch(value: Option<&Value>) -> Result<LatchPolicy, String> {
    let Some(value) = value else {
        return Ok(LatchPolicy::Cut);
    };
    let Value::Str(text) = value else {
        return Err("`latch` must be a string: \"cut\" or \"unroll:<frames>\"".into());
    };
    if text == "cut" {
        return Ok(LatchPolicy::Cut);
    }
    if let Some(frames) = text.strip_prefix("unroll:") {
        let frames: usize = frames
            .parse()
            .map_err(|_| format!("bad frame count in `latch: \"{text}\"`"))?;
        if frames == 0 {
            return Err("`latch: \"unroll:0\"`: need at least one frame".into());
        }
        return Ok(LatchPolicy::Unroll(frames));
    }
    Err(format!(
        "unknown latch policy `{text}` (expected \"cut\" or \"unroll:<frames>\")"
    ))
}

/// Extracts the circuit payload from a predict request's fields: exactly one
/// of `bench` (BENCH text), `aiger` (AIGER-ASCII text) or `aiger_b64`
/// (base64 of an ASCII or binary AIGER file).
fn parse_payload(
    fields: &std::collections::BTreeMap<String, Value>,
    name: &str,
) -> Result<RequestPayload, String> {
    let sources = [
        ("bench", fields.get("bench")),
        ("aiger", fields.get("aiger")),
        ("aiger_b64", fields.get("aiger_b64")),
    ];
    let mut present = sources.iter().filter(|(_, value)| value.is_some());
    let (Some((field, Some(value))), None) = (present.next(), present.next()) else {
        return Err("predict request needs exactly one of `bench`, `aiger` or `aiger_b64`".into());
    };
    let Value::Str(text) = value else {
        return Err(format!("`{field}` must be a string"));
    };
    if *field == "bench" {
        if fields.contains_key("latch") {
            return Err("`latch` only applies to AIGER payloads".into());
        }
        return Ok(RequestPayload::Bench {
            name: name.to_string(),
            text: text.clone(),
        });
    }
    let policy = parse_latch(fields.get("latch"))?;
    let bytes = if *field == "aiger" {
        text.as_bytes().to_vec()
    } else {
        b64::decode(text).map_err(|e| format!("`aiger_b64`: {e}"))?
    };
    Ok(RequestPayload::Aiger {
        name: name.to_string(),
        bytes,
        policy,
    })
}

/// A predict request submitted to the scheduler, carried by its reply: the
/// routing context its outcome needs to become a wire response.
struct PendingPredict {
    slot: usize,
    generation: u64,
    id: Option<Value>,
    name: String,
    trace: RequestTrace,
    /// When the job entered the queue; the completion's `Infer` span is
    /// measured from here (queue wait + model execution, exactly
    /// what the blocking front end attributed to the stage).
    infer_started: Instant,
}

/// The nonblocking response path: each job's reply pushes its request and
/// outcome here and wakes the event loop, which drains the queue on its
/// next iteration. The push side never blocks on anything but this short
/// mutex, so inference is never coupled to socket backpressure.
struct CompletionQueue {
    queue: Mutex<Vec<(PendingPredict, Outcome)>>,
    waker: Waker,
}

impl CompletionQueue {
    /// Replies can fire from a panicking worker's unwind (their drop
    /// guard), so a poisoned mutex is recovered rather than propagated —
    /// the queued `Vec` is always structurally valid.
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<(PendingPredict, Outcome)>> {
        self.queue
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn push(&self, pending: PendingPredict, outcome: Outcome) {
        self.lock().push((pending, outcome));
        self.waker.wake();
    }
}

/// The event loop: the single thread owning the listener and every
/// connection, hygiene deadlines included.
struct EventLoop {
    inner: Arc<Inner>,
    poller: Poller,
    /// Dropped when the drain begins, so new connections stop arriving.
    listener: Option<TcpListener>,
    wake_rx: WakeReceiver,
    table: ConnTable,
    completions: Arc<CompletionQueue>,
    /// Connections unpaused this iteration: their buffered requests resume
    /// processing after the event batch (not recursively inside it).
    resume: Vec<usize>,
    /// Drain grace deadline, armed when every response has been computed.
    flush_deadline: Option<Instant>,
}

/// What one dispatched request line asks the event loop to do.
enum LineAction {
    /// Queue a response (and optionally begin the drain).
    Respond {
        response: Value,
        /// `Some(request name)` when the line was a predict request — only
        /// those fold into the stage histograms and the slow log.
        predict: Option<String>,
        /// The connection requested a server shutdown.
        shutdown: bool,
    },
    /// Submit a prepared circuit to the scheduler without blocking.
    Submit {
        prepared: Arc<PreparedCircuit>,
        deadline: Option<Instant>,
        id: Option<Value>,
        name: String,
    },
}

impl LineAction {
    fn reply(response: Value) -> Self {
        LineAction::Respond {
            response,
            predict: None,
            shutdown: false,
        }
    }
}

/// One step of slicing buffered bytes into request lines, extracted from
/// the connection borrow so the loop can act on the table afterwards.
enum Step {
    /// The line limit was breached; answer once and cut the connection.
    Overflow,
    /// Only a partial line (or nothing) is buffered; wait for more bytes.
    Wait,
    /// The line is not valid UTF-8; the stream cannot be resynced.
    BadUtf8,
    /// An empty line: skipped without a response, like the blocking reader.
    Skip,
    /// A complete line, dispatched to an action.
    Act(LineAction, RequestTrace),
}

impl EventLoop {
    fn new(
        inner: Arc<Inner>,
        listener: TcpListener,
        wake_rx: WakeReceiver,
        completions: Arc<CompletionQueue>,
    ) -> std::io::Result<EventLoop> {
        let mut poller = Poller::default();
        poller.register(listener.as_raw_fd(), LISTENER, Interest::READABLE)?;
        poller.register(wake_rx.fd(), WAKER_TOKEN, Interest::READABLE)?;
        Ok(EventLoop {
            inner,
            poller,
            listener: Some(listener),
            wake_rx,
            table: ConnTable::new(),
            completions,
            resume: Vec::new(),
            flush_deadline: None,
        })
    }

    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            let now = Instant::now();
            let next_deadline = self.expire(now);
            let timeout = self.poll_timeout(next_deadline, now);
            if self.poller.wait(&mut events, Some(timeout)).is_err() {
                // A failing poller must not busy-spin; EINTR is already
                // mapped to a clean zero-event wakeup below this.
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            self.inner.metrics.eventloop_wakeups.inc();
            for &ev in &events {
                match ev.token {
                    LISTENER => self.accept_ready(),
                    WAKER_TOKEN => {} // drained below, before the completions
                    token => {
                        let slot = token - CONN_BASE;
                        if ev.writable {
                            self.flush_conn(slot);
                        }
                        // A hangup without readable interest still routes
                        // through the read path: the read observes the
                        // EOF/error and retires the connection.
                        if ev.readable || ev.hangup {
                            self.read_conn(slot);
                        }
                    }
                }
            }
            self.drain_completions();
            // Connections unpaused by response flushes resume their
            // buffered requests now, outside any borrow of the flusher.
            let resume = std::mem::take(&mut self.resume);
            for slot in resume {
                self.read_conn(slot);
            }
            if self.inner.draining.load(Ordering::SeqCst) && self.drain_step() {
                return;
            }
        }
    }

    /// How long the next poller wait may sleep: until the earliest hygiene
    /// deadline — floored at one millisecond so an imminent deadline cannot
    /// turn the wait into a busy spin — capped so state flags (draining)
    /// are noticed promptly.
    fn poll_timeout(&self, next_deadline: Option<Instant>, now: Instant) -> Duration {
        let cap = if self.inner.draining.load(Ordering::SeqCst) {
            DRAIN_POLL
        } else {
            IDLE_POLL_CAP
        };
        match next_deadline {
            Some(deadline) => deadline
                .saturating_duration_since(now)
                .max(Duration::from_millis(1))
                .min(cap),
            None => cap,
        }
    }

    /// Cuts every connection past a hygiene deadline and returns the
    /// earliest deadline still pending. The deadlines are read from the
    /// connection itself:
    ///
    /// - **line** — a partial request line started `line_timeout` ago
    ///   (slow-loris): answered with one error line, counted as reaped;
    /// - **write** — a write buffer that made no progress by its
    ///   `write_deadline`: dropped, counted as a write timeout;
    /// - **idle** — nothing completed for `idle_timeout`: closed silently,
    ///   counted as reaped. A connection with work in flight is not idle:
    ///   a long prediction, an undrained response or a partial line each
    ///   keep it alive (the line and write deadlines police the latter two).
    ///
    /// One pass over the occupied slots per wakeup, the same O(connections)
    /// the `poll(2)` wait already pays for its `pollfd` array: ~8 µs at 512
    /// connections on a 2-vCPU x86-64 box, where `poll(2)` over as many
    /// fds takes ~13 µs.
    fn expire(&mut self, now: Instant) -> Option<Instant> {
        enum Cut {
            Line,
            Write,
            Idle,
        }
        let config = &self.inner.config;
        let mut due = Vec::new();
        let mut next: Option<Instant> = None;
        for (slot, conn) in self.table.iter() {
            let busy = conn.inflight > 0 || !conn.out.is_empty() || conn.line_started.is_some();
            let line = conn.line_started.zip(config.line_timeout);
            let write = conn.write_deadline.filter(|_| !conn.out.is_empty());
            let idle = config.idle_timeout.filter(|_| !busy);
            let earliest = [
                (line.map(|(started, t)| started + t), Cut::Line),
                (write, Cut::Write),
                (idle.map(|t| conn.last_activity + t), Cut::Idle),
            ]
            .into_iter()
            .filter_map(|(deadline, cut)| Some((deadline?, cut)))
            .min_by_key(|&(deadline, _)| deadline);
            match earliest {
                Some((deadline, cut)) if deadline <= now => due.push((slot, cut)),
                Some((deadline, _)) => next = Some(next.map_or(deadline, |n| n.min(deadline))),
                None => {}
            }
        }
        for (slot, cut) in due {
            match cut {
                Cut::Line => {
                    self.inner.metrics.connections_reaped.inc();
                    if let Some(conn) = self.table.get_mut(slot) {
                        conn.out.push(b"{\"error\":\"request line timed out\"}\n");
                        let _ = conn.out.flush_to(&mut conn.stream);
                    }
                }
                Cut::Write => self.inner.metrics.write_timeouts.inc(),
                Cut::Idle => self.inner.metrics.connections_reaped.inc(),
            }
            self.close_conn(slot);
        }
        next
    }

    /// Accepts every connection the listener has queued (level-triggered:
    /// anything left re-reports on the next wait).
    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => self.admit(stream),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        if self.inner.draining.load(Ordering::SeqCst) {
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        self.inner.metrics.connections_accepted.inc();
        // Fleet bound: with every slot occupied, refuse the connection with
        // one best-effort error line instead of letting per-connection
        // buffers grow without limit. The accepted socket is still in
        // blocking mode here, so the bounded write timeout applies.
        let cap = self.inner.config.max_connections;
        if cap > 0 && self.table.len() >= cap {
            self.inner.metrics.connections_rejected.inc();
            let mut stream = stream;
            let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
            let _ = stream
                .write_all(b"{\"error\":\"server at connection capacity, try again later\"}\n");
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        let now = Instant::now();
        let max_line = self.inner.config.max_request_bytes;
        let fd = stream.as_raw_fd();
        let slot = self
            .table
            .insert(move |generation| Conn::new(stream, generation, max_line, now));
        if self
            .poller
            .register(fd, slot + CONN_BASE, Interest::READABLE)
            .is_err()
        {
            if let Some(conn) = self.table.remove(slot) {
                let _ = conn.stream.shutdown(Shutdown::Both);
            }
            return;
        }
        self.inner.metrics.connections_open.inc();
    }

    /// Reads everything the socket has (level-triggered readiness makes
    /// partial reads safe), slicing out and dispatching complete lines.
    fn read_conn(&mut self, slot: usize) {
        loop {
            if self.process_buffered_lines(slot) {
                return; // connection closed
            }
            let Some(conn) = self.table.get_mut(slot) else {
                return;
            };
            if conn.paused || conn.close_after_drain {
                break;
            }
            match conn.framer.read_from(&mut conn.stream) {
                Ok(0) => {
                    // EOF: dispatch whatever is already buffered, then
                    // retire — immediately if idle, after the drain if
                    // responses are still owed or in flight.
                    if self.process_buffered_lines(slot) {
                        return;
                    }
                    let Some(conn) = self.table.get_mut(slot) else {
                        return;
                    };
                    if conn.inflight == 0 && conn.out.is_empty() {
                        self.close_conn(slot);
                        return;
                    }
                    conn.close_after_drain = true;
                    break;
                }
                Ok(_) => continue,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(slot);
                    return;
                }
            }
        }
        self.sync_interest(slot);
    }

    /// Slices and dispatches every complete request line buffered on
    /// `slot`. Returns `true` when the connection was closed.
    fn process_buffered_lines(&mut self, slot: usize) -> bool {
        let inner = Arc::clone(&self.inner);
        loop {
            let step = {
                let Some(conn) = self.table.get_mut(slot) else {
                    return true;
                };
                if conn.paused || conn.close_after_drain {
                    return false;
                }
                let now = Instant::now();
                match conn.framer.next_line() {
                    Err(LineOverflow) => Step::Overflow,
                    Ok(None) => {
                        conn.framer.compact();
                        // The slow-loris clock starts when the first
                        // partial bytes are observed.
                        conn.line_started = match conn.framer.pending() {
                            0 => None,
                            _ => conn.line_started.or(Some(now)),
                        };
                        Step::Wait
                    }
                    Ok(Some(line)) => {
                        conn.last_activity = now;
                        conn.line_started = None;
                        match std::str::from_utf8(line) {
                            Err(_) => Step::BadUtf8,
                            Ok(text) if text.trim().is_empty() => Step::Skip,
                            Ok(text) => {
                                let mut trace = RequestTrace::start();
                                // Request handling is guarded: a panic in
                                // the parse/encode/plan path (a bug, or an
                                // injected fault) becomes one error
                                // response on a live connection.
                                let action =
                                    match std::panic::catch_unwind(AssertUnwindSafe(|| {
                                        handle_line(&inner, text, &mut trace)
                                    })) {
                                        Ok(action) => action,
                                        Err(payload) => {
                                            inner.metrics.request_panics_recovered.inc();
                                            LineAction::reply(error_response(
                                                None,
                                                &format!(
                                                    "internal error: request handling panicked: {}",
                                                    panic_message(payload.as_ref())
                                                ),
                                            ))
                                        }
                                    };
                                Step::Act(action, trace)
                            }
                        }
                    }
                }
            };
            match step {
                Step::Overflow => {
                    inner.metrics.requests_unknown.inc();
                    inner.metrics.request_errors.inc();
                    let limit = inner.config.max_request_bytes;
                    if let Some(conn) = self.table.get_mut(slot) {
                        conn.out.push(
                            format!("{{\"error\":\"request exceeds {limit} bytes\"}}\n").as_bytes(),
                        );
                        // One best-effort flush; the stream cannot be
                        // resynced, so it closes regardless.
                        let _ = conn.out.flush_to(&mut conn.stream);
                    }
                    self.close_conn(slot);
                    return true;
                }
                Step::Wait => return false,
                Step::BadUtf8 => {
                    // The blocking reader's read_line met invalid UTF-8 as
                    // an unrecoverable stream error: close without a
                    // response.
                    self.close_conn(slot);
                    return true;
                }
                Step::Skip => continue,
                Step::Act(action, trace) => {
                    if self.apply_action(slot, action, trace) {
                        return true;
                    }
                }
            }
        }
    }

    /// Executes one dispatched action. Returns `true` when the connection
    /// was closed.
    fn apply_action(&mut self, slot: usize, action: LineAction, trace: RequestTrace) -> bool {
        match action {
            LineAction::Respond {
                response,
                predict,
                shutdown,
            } => {
                let closed = self.respond(Some(slot), response, trace, predict.as_deref());
                if shutdown {
                    // Respond first, then begin the drain; this connection
                    // closes once its response drains.
                    self.inner.request_shutdown();
                    if !closed {
                        if let Some(conn) = self.table.get_mut(slot) {
                            conn.close_after_drain = true;
                        }
                        return self.close_if_drained(slot);
                    }
                }
                closed
            }
            LineAction::Submit {
                prepared,
                deadline,
                id,
                name,
            } => {
                let Some(conn) = self.table.get_mut(slot) else {
                    return true;
                };
                conn.inflight += 1;
                let pending = PendingPredict {
                    slot,
                    generation: conn.generation,
                    id,
                    name,
                    trace,
                    infer_started: Instant::now(),
                };
                // Every outcome, rejections included, comes back through
                // the completion queue.
                let completions = Arc::clone(&self.completions);
                self.inner
                    .scheduler
                    .submit(prepared, deadline, move |outcome| {
                        completions.push(pending, outcome)
                    });
                false
            }
        }
    }

    /// Serialises a response (with the respond-stage fault hook and panic
    /// guard), queues it on the connection's write buffer and records the
    /// predict-stage telemetry. `slot: None` answers into the void — the
    /// client disconnected while its prediction ran; the telemetry is still
    /// recorded so every predict outcome is observed exactly once.
    ///
    /// Returns `true` when the connection was closed.
    fn respond(
        &mut self,
        slot: Option<usize>,
        response: Value,
        mut trace: RequestTrace,
        predict: Option<&str>,
    ) -> bool {
        let inner = Arc::clone(&self.inner);
        if response
            .as_object()
            .is_some_and(|fields| fields.contains_key("error"))
        {
            inner.metrics.request_errors.inc();
        }
        // The respond stage keeps its own guard: a panic while firing the
        // stage hook or serialising (only reachable via an injected fault
        // today) closes this connection without touching the others.
        let serialised = std::panic::catch_unwind(AssertUnwindSafe(|| {
            trace.time(Stage::Respond, || -> std::io::Result<Vec<u8>> {
                if let Some(faults) = &inner.config.faults {
                    faults.fire(Stage::Respond)?;
                }
                let mut payload = match serde_json::to_string(&response) {
                    Ok(json) => json,
                    Err(_) => r#"{"error":"internal: response serialisation failed"}"#.into(),
                };
                payload.push('\n');
                Ok(payload.into_bytes())
            })
        }));
        let mut closed = false;
        match serialised {
            Ok(Ok(payload)) => {
                if let Some(slot) = slot {
                    if let Some(conn) = self.table.get_mut(slot) {
                        conn.out.push(&payload);
                        conn.last_activity = Instant::now();
                        if !conn.paused && conn.out.len() > WRITE_HIGH_WATERMARK {
                            // Backpressure: stop reading new requests until
                            // the client drains its responses.
                            conn.paused = true;
                            inner.metrics.write_backpressure.inc();
                        }
                    }
                }
            }
            Ok(Err(e)) => {
                // An injected respond-stage I/O error: same accounting as a
                // failed blocking write of this response.
                if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
                    inner.metrics.write_timeouts.inc();
                }
                if let Some(slot) = slot {
                    self.close_conn(slot);
                    closed = true;
                }
            }
            Err(_) => {
                inner.metrics.request_panics_recovered.inc();
                if let Some(slot) = slot {
                    self.close_conn(slot);
                    closed = true;
                }
            }
        }
        // Stage histograms and the slow log track predict requests only,
        // so `request_latency_ns.count` equals `requests_predict_total`
        // exactly — including responses whose write failed or whose client
        // is already gone, same as the blocking front end.
        if let Some(name) = predict {
            inner.metrics.stages.observe(&trace);
            if let Some(slow) = &inner.slow_log {
                if let Some(record) = slow.check("predict", name, &trace) {
                    inner.metrics.slow_requests.inc();
                    eprintln!("{record}");
                }
            }
        }
        if closed {
            return true;
        }
        match slot {
            Some(slot) => self.flush_conn(slot),
            None => false,
        }
    }

    /// Drives the write-buffer state machine: flush as much as the socket
    /// accepts, manage the write deadline (set on first block, pushed
    /// forward on progress), lift backpressure below the low watermark and
    /// retire connections whose drain completed. Returns `true` when the
    /// connection was closed.
    fn flush_conn(&mut self, slot: usize) -> bool {
        let now = Instant::now();
        let mut resumed = false;
        let close = {
            let Some(conn) = self.table.get_mut(slot) else {
                return true;
            };
            if conn.out.is_empty() {
                conn.write_deadline = None;
                conn.close_after_drain && conn.inflight == 0
            } else {
                match conn.out.flush_to(&mut conn.stream) {
                    Ok(Flush::Drained) => {
                        conn.write_deadline = None;
                        conn.last_activity = now;
                        if conn.paused {
                            conn.paused = false;
                            resumed = true;
                        }
                        conn.close_after_drain && conn.inflight == 0
                    }
                    Ok(Flush::Blocked { progressed }) => {
                        if conn.paused && conn.out.len() <= WRITE_LOW_WATERMARK {
                            conn.paused = false;
                            resumed = true;
                        }
                        if let Some(timeout) = self.inner.config.write_timeout {
                            if progressed || conn.write_deadline.is_none() {
                                // Progress resets the deadline — only a
                                // socket accepting nothing for the full
                                // window is cut, like the blocking write
                                // timeout.
                                conn.write_deadline = Some(now + timeout);
                            }
                        }
                        false
                    }
                    Err(_) => true,
                }
            }
        };
        if close {
            self.close_conn(slot);
            return true;
        }
        if resumed {
            self.resume.push(slot);
        }
        self.sync_interest(slot);
        false
    }

    /// Closes `slot` now if it is marked close-after-drain and has nothing
    /// left to deliver. Returns `true` when it closed.
    fn close_if_drained(&mut self, slot: usize) -> bool {
        let done = self
            .table
            .get_mut(slot)
            .is_some_and(|c| c.close_after_drain && c.out.is_empty() && c.inflight == 0);
        if done {
            self.close_conn(slot);
        }
        done
    }

    fn close_conn(&mut self, slot: usize) {
        let Some(conn) = self.table.remove(slot) else {
            return;
        };
        // Free the token's poller slot before the table can hand the slot
        // to a new connection, whose fd must not inherit this one's events.
        let _ = self.poller.deregister(slot + CONN_BASE);
        // Retire the socket at the TCP level, not just drop the fd: a cut
        // client sees a prompt FIN/RST instead of a zero-window socket.
        let _ = conn.stream.shutdown(Shutdown::Both);
        self.inner.metrics.connections_open.dec();
        self.inner.metrics.connections_closed.inc();
    }

    /// Writes the interest set the connection's state implies (readable
    /// unless paused/half-closed; writable while output is queued) into its
    /// poller slot — a memory write, so there is nothing to diff against.
    fn sync_interest(&mut self, slot: usize) {
        if let Some(conn) = self.table.get_mut(slot) {
            let _ = self
                .poller
                .reregister(slot + CONN_BASE, conn.desired_interest());
        }
    }

    /// Hands every scheduler outcome back to its connection. The wake
    /// datagrams are drained FIRST: a producer that loses the coalescing
    /// race has already enqueued its outcome, so checking the queue after
    /// the drain cannot miss it.
    fn drain_completions(&mut self) {
        self.wake_rx.drain();
        let completions = std::mem::take(&mut *self.completions.lock());
        for (pending, outcome) in completions {
            self.inner.metrics.eventloop_completions.inc();
            let PendingPredict {
                slot,
                generation,
                id,
                name,
                mut trace,
                infer_started,
            } = pending;
            trace.add(Stage::Infer, infer_started.elapsed());
            let target = match self.table.get_generation(slot, generation) {
                Some(conn) => {
                    conn.inflight = conn.inflight.saturating_sub(1);
                    Some(slot)
                }
                // The connection died (or the slot was recycled) while the
                // prediction ran: the result is dropped, the telemetry
                // still recorded.
                None => None,
            };
            let response = match outcome {
                Ok(probs) => {
                    let mut response = object_with_id(id);
                    response.insert("probs".to_string(), probs.serialize());
                    Value::Object(response)
                }
                Err(e) => error_response(id, &e.to_string()),
            };
            self.respond(target, response, trace, Some(&name));
        }
    }

    /// One drain iteration. Stops accepting immediately; once the
    /// scheduler has flushed — after which every job's reply has fired —
    /// and every outcome is routed, gives clients a bounded grace to
    /// accept buffered responses, then retires every connection. Returns
    /// `true` when the loop should exit.
    fn drain_step(&mut self) -> bool {
        if self.listener.take().is_some() {
            let _ = self.poller.deregister(LISTENER);
        }
        if !self.inner.scheduler_drained.load(Ordering::SeqCst)
            || !self.completions.lock().is_empty()
        {
            return false;
        }
        // Every response is computed and queued; what remains is delivery.
        let now = Instant::now();
        let deadline = *self.flush_deadline.get_or_insert(now + DRAIN_GRACE);
        let mut all_drained = true;
        for slot in self.table.occupied() {
            let undrained = self.table.get_mut(slot).is_some_and(|c| !c.out.is_empty());
            if undrained && !self.flush_conn(slot) {
                let still = self.table.get_mut(slot).is_some_and(|c| !c.out.is_empty());
                all_drained &= !still;
            }
        }
        if !all_drained && now < deadline {
            return false;
        }
        for slot in self.table.occupied() {
            self.close_conn(slot);
        }
        true
    }
}

/// Parses and dispatches one request line, attributing stage timings to
/// `trace` (JSON parsing and payload extraction → `Parse`; `Encode`/`Plan`
/// inside [`Inner::resolve`] on cache misses; queueing + model execution →
/// `Infer`, measured by the event loop across the async round trip; the
/// loop times `Respond` around serialisation).
fn handle_line(inner: &Arc<Inner>, line: &str, trace: &mut RequestTrace) -> LineAction {
    // Parse-stage fault hook: panics unwind into the event loop's recovery
    // guard (one error response), I/O faults answer directly.
    if let Err(e) = inner.fault(Stage::Parse) {
        return LineAction::reply(error_response(None, &e.to_string()));
    }
    let parsed: Result<Value, _> = trace.time(Stage::Parse, || serde_json::from_str(line.trim()));
    let request = match parsed {
        Ok(value) => value,
        Err(e) => {
            inner.metrics.requests_unknown.inc();
            return LineAction::reply(error_response(None, &format!("invalid JSON: {e}")));
        }
    };
    let Some(fields) = request.as_object() else {
        inner.metrics.requests_unknown.inc();
        return LineAction::reply(error_response(None, "request must be a JSON object"));
    };
    let id = fields.get("id").cloned();
    let op = match fields.get("op") {
        Some(Value::Str(op)) => op.as_str(),
        Some(_) => {
            inner.metrics.requests_unknown.inc();
            return LineAction::reply(error_response(id, "`op` must be a string"));
        }
        None => "predict",
    };
    match op {
        "stats" => {
            inner.metrics.requests_stats.inc();
            let mut response = object_with_id(id);
            response.insert(
                "stats".to_string(),
                stats_to_value(&inner.metrics.snapshot()),
            );
            LineAction::reply(Value::Object(response))
        }
        "metrics" => {
            inner.metrics.requests_metrics.inc();
            let mut response = object_with_id(id);
            response.insert(
                "metrics".to_string(),
                snapshot_to_value(&inner.metrics.snapshot()),
            );
            LineAction::reply(Value::Object(response))
        }
        "metrics_text" => {
            inner.metrics.requests_metrics_text.inc();
            let mut response = object_with_id(id);
            response.insert(
                "metrics_text".to_string(),
                Value::Str(inner.metrics.snapshot().to_prometheus("deepgate")),
            );
            LineAction::reply(Value::Object(response))
        }
        "shutdown" => {
            inner.metrics.requests_shutdown.inc();
            let mut response = object_with_id(id);
            response.insert("ok".to_string(), Value::Bool(true));
            LineAction::Respond {
                response: Value::Object(response),
                predict: None,
                shutdown: true,
            }
        }
        "predict" => {
            inner.metrics.requests_predict.inc();
            let name = match fields.get("name") {
                Some(Value::Str(name)) => name.as_str(),
                _ => "request",
            };
            let predict = Some(name.to_string());
            if inner.draining.load(Ordering::SeqCst) {
                return LineAction::Respond {
                    response: error_response(id, &ServeError::ShuttingDown.to_string()),
                    predict,
                    shutdown: false,
                };
            }
            let payload = match trace.time(Stage::Parse, || parse_payload(fields, name)) {
                Ok(payload) => payload,
                Err(message) => {
                    return LineAction::Respond {
                        response: error_response(id, &message),
                        predict,
                        shutdown: false,
                    }
                }
            };
            let budget =
                match parse_deadline(fields.get("deadline_ms"), inner.config.default_deadline) {
                    Ok(budget) => budget,
                    Err(message) => {
                        return LineAction::Respond {
                            response: error_response(id, &message),
                            predict,
                            shutdown: false,
                        }
                    }
                };
            // The budget is measured from the instant the request line was
            // read — the trace's start — not from here, so time already
            // spent parsing counts against it.
            let deadline = budget.map(|budget| trace.started_at() + budget);
            match inner.resolve(&payload, trace) {
                Ok(prepared) => LineAction::Submit {
                    prepared,
                    deadline,
                    id,
                    name: name.to_string(),
                },
                Err(e) => LineAction::Respond {
                    response: error_response(id, &e.to_string()),
                    predict,
                    shutdown: false,
                },
            }
        }
        other => {
            inner.metrics.requests_unknown.inc();
            LineAction::reply(error_response(id, &format!("unknown op `{other}`")))
        }
    }
}

fn object_with_id(id: Option<Value>) -> std::collections::BTreeMap<String, Value> {
    let mut map = std::collections::BTreeMap::new();
    if let Some(id) = id {
        map.insert("id".to_string(), id);
    }
    map
}

fn error_response(id: Option<Value>, message: &str) -> Value {
    let mut map = object_with_id(id);
    map.insert("error".to_string(), Value::Str(message.to_string()));
    Value::Object(map)
}
